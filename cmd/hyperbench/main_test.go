package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hyperion/internal/bench"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

const specPath = "../../BENCHMARK.json"

// TestMain lets the test binary stand in for hyperbench: the cold
// passes a run times are fresh copies of the running executable.
func TestMain(m *testing.M) {
	if os.Getenv("HYPERBENCH_AS_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// hyperbench runs the program in-process and returns its exit status,
// standard output and standard error.
func hyperbench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// resultLines decodes every result line of an output.
func resultLines(t *testing.T, out string) []report {
	t.Helper()
	var reps []report
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `{"correct"`) {
			continue
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &keys); err != nil {
			t.Fatalf("result line: %v", err)
		}
		if len(keys) != 4 {
			t.Fatalf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
		}
		var r report
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("result line: %v", err)
		}
		reps = append(reps, r)
	}
	return reps
}

func TestWorkloadsPartitionTheRegistry(t *testing.T) {
	seen := map[string]string{}
	for _, w := range workloads {
		exps, err := w.resolve()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range exps {
			if prev, dup := seen[e.ID]; dup {
				t.Errorf("%s is in both %s and %s", e.ID, prev, w.name)
			}
			seen[e.ID] = w.name
			if len(golden[e.ID]) != 64 {
				t.Errorf("%s (workload %s) has no golden hash", e.ID, w.name)
			}
		}
	}
	// A registered experiment no workload names is reported, not failed:
	// the change that adds one may not be allowed to edit this directory.
	if un := unassigned(); len(un) > 0 {
		t.Logf("unassigned: %v", un)
	}
	if len(seen)+len(unassigned()) != len(bench.All()) {
		t.Errorf("%d assigned + %d unassigned != %d registered", len(seen), len(unassigned()), len(bench.All()))
	}
}

// swapGolden replaces one golden hash for the duration of a test.
func swapGolden(t *testing.T, id, hash string) {
	t.Helper()
	old := golden[id]
	golden[id] = hash
	t.Cleanup(func() { golden[id] = old })
}

// quick is the smallest untraced run: the in-process cold pass and one
// timed pass, on the lightest workload.
func quick(t *testing.T, seed uint64) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	w, _ := workloadByName("datapath")
	code := runOnce(runCfg{w: w, seed: seed, smoke: true}, 0, "", &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestWrongGoldenFails(t *testing.T) {
	swapGolden(t, "E7", strings.Repeat("0", 64))
	code, out, errOut := quick(t, 1)
	if code == 0 {
		t.Fatal("exit status 0 with a wrong golden hash")
	}
	reps := resultLines(t, out)
	if len(reps) != 1 || reps[0].Correct || reps[0].Failed != 2 || reps[0].Attempted != 22 {
		t.Fatalf("result %+v, want incorrect with 2 of 22 failed", reps)
	}
	if !strings.Contains(errOut, "FAIL cold pass 0 E7: table sha256") || !strings.Contains(out, "FAIL warm pass 0 E7") {
		t.Fatalf("failing experiment not named:\nstdout:\n%s\nstderr:\n%s", out, errOut)
	}
	if strings.Contains(out, "FAIL warm pass 0 E3") {
		t.Fatal("an experiment with the right hash was failed")
	}
}

// The seed moves the order experiments run in, never the simulated
// universe: a run at another seed is still held to the golden hashes,
// not merely to agreeing with itself.
func TestOtherSeedIsCheckedAgainstGolden(t *testing.T) {
	if a, b := sim.NewRand(1).Perm(11), sim.NewRand(7).Perm(11); fmt.Sprint(a) == fmt.Sprint(b) {
		t.Fatalf("seeds 1 and 7 give the same order %v", a)
	}
	if a, b := sim.NewRand(7).Perm(11), sim.NewRand(7).Perm(11); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("seed 7 gives %v then %v", a, b)
	}
	if code, out, errOut := quick(t, 7); code != 0 {
		t.Fatalf("seed 7 failed:\n%s\n%s", out, errOut)
	}
	swapGolden(t, "E16", strings.Repeat("f", 64))
	if code, _, errOut := quick(t, 7); code == 0 || !strings.Contains(errOut, "E16") {
		t.Fatalf("seed 7 with a wrong golden: exit %d, stderr:\n%s", code, errOut)
	}
}

func readSpecFile(t *testing.T) spec {
	t.Helper()
	s, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesProgram keeps BENCHMARK.json and the program from
// drifting: same workloads, same metrics, same units and directions.
func TestSpecMatchesProgram(t *testing.T) {
	s := readSpecFile(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	same := func(kind string, got []specMetric, defs []metricDef) {
		var have []metricDef
		for _, m := range got {
			have = append(have, metricDef{m.Name, m.Unit, m.Better})
		}
		if fmt.Sprint(have) != fmt.Sprint(defs) {
			var b strings.Builder
			for _, d := range defs {
				fmt.Fprintf(&b, "    {\"name\": %q, \"unit\": %q, \"better\": %q},\n", d.name, d.unit, d.better)
			}
			t.Errorf("%s of %s differs from the program's; the program defines:\n%s", kind, specPath, b.String())
		}
	}
	same("end_to_end", s.EndToEnd, endToEnd)
	same("per_layer", s.PerLayer, perLayer())
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(s.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(s.PerLayer))
	}
}

var tracedLine = regexp.MustCompile(`traced pass wall (\S+) s .* outside its experiment spans (\S+) s`)

// TestSmoke drives `-mode smoke`: one cold and one warm pass per
// workload with every instrument on. Under -short only the lightest
// workload runs, which is what the race job can afford.
func TestSmoke(t *testing.T) {
	s := readSpecFile(t)
	names := []string{"datapath"}
	if !testing.Short() {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			traceFile := filepath.Join(t.TempDir(), "spans.json")
			outFile := filepath.Join(t.TempDir(), "runs.jsonl")
			code, out, errOut := hyperbench(t, "-mode", "smoke", "-workload", name, "-tracefile", traceFile, "-out", outFile)
			if code != 0 {
				t.Fatalf("exit %d\n%s\n%s", code, out, errOut)
			}
			reps := resultLines(t, out)
			if len(reps) != 2 {
				t.Fatalf("%d result lines, want an untraced and a traced one", len(reps))
			}
			if last := strings.TrimSpace(out[strings.LastIndex(strings.TrimSpace(out), "\n")+1:]); !strings.HasPrefix(last, `{"correct":true`) {
				t.Fatalf("last line of output is not the result: %.80s", last)
			}
			for i, defs := range [][]specMetric{s.EndToEnd, s.PerLayer} {
				r := reps[i]
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("trace=%d: result %v/%d/%d", i, r.Correct, r.Attempted, r.Failed)
				}
				var got, want []string
				for n := range r.Metrics {
					got = append(got, n)
				}
				for _, d := range defs {
					want = append(want, d.Name)
					if m := r.Metrics[d.Name]; m.Unit != d.Unit {
						t.Errorf("%s: unit %q, spec says %q", d.Name, m.Unit, d.Unit)
					}
				}
				sort.Strings(got)
				sort.Strings(want)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("trace=%d emits %v\nspec names %v", i, got, want)
				}
			}
			for _, d := range s.EndToEnd {
				if v := reps[0].Metrics[d.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want positive", d.Name, v)
				}
			}

			layers := reps[1].Metrics
			var shares float64
			for _, l := range cpuLayers {
				shares += layers[l+".cpu_share"].Value
			}
			if math.Abs(shares-100) > 0.5 {
				t.Errorf("cpu shares sum to %v", shares)
			}
			m := tracedLine.FindStringSubmatch(out)
			if m == nil {
				t.Fatalf("no traced-pass line in:\n%s", out)
			}
			wall, _ := strconv.ParseFloat(m[1], 64)
			self, _ := strconv.ParseFloat(m[2], 64)
			if self < 0 || self > 0.02*wall {
				t.Errorf("%v s of a %v s traced pass is outside its experiment spans", self, wall)
			}
			w, _ := workloadByName(name)
			for _, id := range w.ids {
				if layers["bench."+id+"_ms"].Value <= 0 {
					t.Errorf("bench.%s_ms is not positive on its own workload", id)
				}
			}
			for _, a := range []string{"sim.schedule_allocs", "wire.getrelease_allocs", "rpc.call_allocs", "telemetry.disarmed_allocs"} {
				// Mallocs is process-wide: a background goroutine may add a
				// few per round, a per-operation allocation adds one per op.
				if v := layers[a].Value; v >= 0.01 {
					t.Errorf("%s = %v, the repository pins zero", a, v)
				}
			}
			if name == "storage" && reps[1].Metrics["sim.events"].Value != 0 {
				t.Error("storage simulated events; it exists to run the layers synchronously")
			}
			if name != "storage" && reps[1].Metrics["sim.events"].Value == 0 {
				t.Error("no simulated events")
			}

			data, err := os.ReadFile(traceFile)
			if err != nil {
				t.Fatal(err)
			}
			if err := telemetry.ValidateChromeTrace(data); err != nil {
				t.Errorf("host span file: %v", err)
			}
			recs, err := readReports(outFile)
			if err != nil || len(recs) != 2 || recs[0].Workload != name || recs[1].Trace != 1 {
				t.Errorf("-out file: %v, %d records", err, len(recs))
			}
		})
	}
}

// TestDriverRun is the run the driver makes, children and all, with
// the measuring time cut short.
func TestDriverRun(t *testing.T) {
	if testing.Short() {
		t.Skip("nine passes and fifteen child processes")
	}
	t.Setenv("HYPERBENCH_AS_MAIN", "1")
	code, out, errOut := hyperbench(t, "--workload", "datapath", "--seed", "5", "--seconds", "0.1", "--trace", "0")
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, out, errOut)
	}
	r := resultLines(t, out)[0]
	// The cold processes, the in-process cold pass and 9 timed passes,
	// 11 experiments each.
	w, _ := workloadByName("datapath")
	if r.Attempted != (w.colds+1+minPasses)*len(w.ids) || r.Failed != 0 {
		t.Errorf("attempted %d failed %d", r.Attempted, r.Failed)
	}

	swapGolden(t, "E1", strings.Repeat("0", 64))
	if code, _, _ := hyperbench(t, "-mode", "cold", "-workload", "datapath"); code == 0 {
		t.Error("a cold pass with a wrong golden hash exits 0")
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "rack", "-mode", "nope"},
		{"--workload", "rack", "extra"},
		{"-compare", "one"},
		{"-compare", "missing-a", "missing-b"},
	} {
		if code, _, errOut := hyperbench(t, args...); code != 2 || errOut == "" {
			t.Errorf("%v: exit %d, stderr %q", args, code, errOut)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, med, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || med != 1.5 || q3 != 2.25 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{3}); q1 != 3 || med != 3 || q3 != 3 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"hyperion/internal/sim.(*Engine).Step":                  "sim",
		"hyperion/internal/storage/bptree.(*Tree).Get":          "storage.bptree",
		"hyperion/internal/storage/bptree.(*Tree).Get.func1":    "storage.bptree",
		"hyperion/internal/storage/txn.Commit":                  "other",
		"hyperion/internal/apps/lb.(*Balancer).Steer":           "apps",
		"hyperion/internal/ebpf/gofront.Compile":                "ebpf",
		"hyperion/internal/fabric.(*WFQArbiter).next":           "fabric",
		"hyperion/internal/sim.Max[hyperion/internal/sim.Time]": "sim",
		"hyperion/internal/energy.Joules":                       "other",
	} {
		if got, ok := layerOf(fn); !ok || got != want {
			t.Errorf("layerOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	for _, fn := range []string{"runtime.gcBgMarkWorker", "main.runPass", "crypto/sha256.block"} {
		if l, ok := layerOf(fn); ok {
			t.Errorf("layerOf(%q) = %q, want none", fn, l)
		}
	}
}

func TestMicrosToPs(t *testing.T) {
	if ps, err := microsToPs("12.000345"); err != nil || ps != 12_000_345 {
		t.Errorf("got %d, %v", ps, err)
	}
	if _, err := microsToPs("1.0000001"); err == nil {
		t.Error("sub-picosecond digits accepted")
	}
}

func TestCompare(t *testing.T) {
	sp, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	// runs builds ten runs of one workload whose wall_s is base scaled by
	// 1 +- jitter; every other end-to-end metric stays put.
	runs := func(base, jitter float64) []report {
		var reps []report
		for i := 0; i < 10; i++ {
			m := map[string]metric{}
			for _, d := range endToEnd {
				m[d.name] = metric{Value: 1}
			}
			m["wall_s"] = metric{Value: base * (1 + jitter*float64(i-5)/5)}
			reps = append(reps, report{Workload: "rack", Seed: uint64(i), Correct: true, Attempted: 10, SimEvents: 7, Metrics: m})
		}
		return reps
	}
	var bound float64
	for _, m := range sp.EndToEnd {
		if m.Name == "wall_s" {
			bound = m.Bound
		}
	}
	check := func(name string, a, b []report, wantCode int, wantLine string) {
		t.Helper()
		var out bytes.Buffer
		code := compareReports(sp, a, b, &out)
		if code != wantCode || !regexp.MustCompile(wantLine).MatchString(out.String()) {
			t.Errorf("%s: exit %d, want %d and a line matching %q in:\n%s", name, code, wantCode, wantLine, out.String())
		}
	}
	check("same", runs(1, 0.01), runs(1, 0.01), 0, `rack +wall_s .* ok\n`)
	check("slower", runs(1, 0.01), runs(1+2*bound, 0.01), 1, `rack +wall_s .* BREACH\n`)
	check("faster", runs(1, 0.01), runs(1-2*bound, 0.01), 0, `rack +wall_s .* ok\n`)
	check("noisy", runs(1, 3*bound), runs(1.01, 3*bound), 0, `rack +wall_s .* unresolved\n`)
	check("noisy but disjoint", runs(1, 3*bound), runs(0.1, 3*bound), 0, `rack +wall_s .* ok \(every run better\)\n`)

	failed := runs(1, 0.01)
	failed[3].Failed = 1
	check("failed run", runs(1, 0.01), failed, 1, `BREACH rack seed 3: 1 of 10`)
	moved := runs(1, 0.01)
	moved[0].SimEvents = 8
	check("event count moved", runs(1, 0.01), moved, 1, `BREACH rack sim_events`)
}
