// Command hyperbench is the repository's benchmark: it measures what a
// fixed amount of simulated work costs the host, end to end and layer
// by layer. BENCHMARK.json at the repository root names its workloads
// and metrics; README.md beside this file explains each.
//
// Usage:
//
//	hyperbench --workload rack --seed 1 --seconds 20 --trace 0   # end-to-end metrics
//	hyperbench --workload rack --seed 1 --seconds 20 --trace 1   # per-layer metrics
//	hyperbench -mode smoke [-workload datapath]                  # one pass, every instrument
//	hyperbench -compare a.jsonl b.jsonl                          # A/A or A/B against the bounds
//
// Every run checks each produced table against golden.json and prints
// every metric by name with its unit; the last line of standard output
// is one JSON object. -out appends the run to a file -compare reads.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"hyperion/internal/bench"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef is one row of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator pays: host time, CPU
// and allocation for one pass of fixed simulated work, and the cost of
// getting to the end of the first pass.
var endToEnd = []metricDef{
	{"wall_s", "s/pass", "lower"},
	{"cpu_s", "s/pass", "lower"},
	{"allocs", "count/pass", "lower"},
	{"alloc_mb", "MB/pass", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer lists every per-layer metric in print order.
func perLayer() []metricDef {
	var defs []metricDef
	for _, w := range workloads {
		for _, id := range w.ids {
			defs = append(defs, metricDef{"bench." + id + "_ms", "ms", "lower"})
		}
	}
	defs = append(defs, metricDef{"bench.trace_overhead_ratio", "ratio", "lower"})
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "%", "lower"})
	}
	defs = append(defs,
		metricDef{"sim.events", "count/pass", "lower"},
		metricDef{"sim.ns_per_event", "ns", "lower"},
		metricDef{"sim.windows", "count", "lower"},
		metricDef{"sim.stall_share", "ratio", "lower"},
		metricDef{"sim.shard2_speedup", "ratio", "higher"},
		metricDef{"sim.busy_events_per_s", "1/s", "higher"},
		metricDef{"runtime.gc_cycles", "count/pass", "lower"},
		metricDef{"runtime.gc_pause_ms", "ms/pass", "lower"},
		metricDef{"runtime.rss_peak_mb", "MB", "lower"},
	)
	for _, l := range spanLayers {
		defs = append(defs, metricDef{l + ".spans", "count", "lower"}, metricDef{l + ".sim_busy_us", "us", "lower"})
	}
	defs = append(defs,
		metricDef{"telemetry.spans", "count", "lower"},
		metricDef{"telemetry.overhead_ratio", "ratio", "lower"},
		metricDef{"telemetry.heap_mb", "MB", "lower"},
	)
	for _, p := range probes {
		if p.metric != "" {
			defs = append(defs, metricDef{p.metric, p.unit, "lower"})
		}
	}
	for _, p := range probes {
		if p.allocs != "" {
			defs = append(defs, metricDef{p.allocs, "allocs/op", "lower"})
		}
	}
	return defs
}

// metric is one reported value. Q1, Q3 and N describe the samples the
// value is the median of; they are printed and kept in -out records but
// are not part of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// report is one run: the result line's four keys, plus what -out adds.
type report struct {
	Workload  string            `json:"workload,omitempty"`
	Seed      uint64            `json:"seed,omitempty"`
	Trace     int               `json:"trace,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	SimEvents float64           `json:"sim_events"` // simulated events per pass; must repeat exactly
	Metrics   map[string]metric `json:"metrics"`
}

// runCfg is what one run measures.
type runCfg struct {
	w       workload
	seed    uint64
	seconds float64
	// smoke cuts a run to the least that takes every path: no cold
	// processes (the in-process cold pass is timed for setup_s), one
	// pass per phase, probes at minimum iterations.
	smoke     bool
	scope     map[string]bool // experiments the workload-independent counters may run
	traceFile string
}

// floor is the least number of timed passes a phase of n takes.
func (c runCfg) floor(n int) int {
	if c.smoke {
		return 1
	}
	return n
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hyperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wname := fs.String("workload", "", "workload to run: tenants, rack, datapath or storage (smoke: empty = all)")
	seed := fs.Uint64("seed", 1, "seed of the run's inputs (the order experiments run in; the simulated universe is always the golden one)")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	mode := fs.String("mode", "", "smoke: one cold and one warm pass with every instrument on; cold: run the cold pass and exit (how setup_s is sampled)")
	compare := fs.Bool("compare", false, "compare two -out files (arguments: a b) against the bounds in ./BENCHMARK.json")
	out := fs.String("out", "", "append this run's report to the file as one JSON line")
	traceFile := fs.String("tracefile", "", "where a traced run writes its host spans (default .bench_build/hyperbench.<workload>.trace.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "hyperbench: -compare takes two files")
			return 2
		}
		return compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "hyperbench: unexpected arguments %q\n", fs.Args())
		return 2
	}

	var selected []workload
	if *wname == "" && *mode == "smoke" {
		selected = workloads
	} else if w, ok := workloadByName(*wname); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(stderr, "hyperbench: unknown workload %q\n", *wname)
		return 2
	}

	switch *mode {
	case "cold":
		return coldPass(selected[0], *seed, stderr)
	case "smoke":
		scope := map[string]bool{}
		for _, w := range selected {
			for _, id := range w.ids {
				scope[id] = true
			}
		}
		code := 0
		for _, w := range selected {
			cfg := runCfg{w: w, seed: *seed, smoke: true, scope: scope, traceFile: *traceFile}
			for tr := 0; tr <= 1; tr++ {
				if c := runOnce(cfg, tr, *out, stdout, stderr); c != 0 {
					code = c
				}
			}
		}
		return code
	case "":
		scope := map[string]bool{}
		for _, e := range bench.All() {
			scope[e.ID] = true
		}
		cfg := runCfg{w: selected[0], seed: *seed, seconds: *seconds, scope: scope, traceFile: *traceFile}
		return runOnce(cfg, *trace, *out, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "hyperbench: unknown mode %q\n", *mode)
		return 2
	}
}

// runOnce measures one workload traced or untraced, prints the metrics
// and the result line, and returns the exit status.
func runOnce(cfg runCfg, trace int, outPath string, stdout, stderr io.Writer) int {
	rep := report{Workload: cfg.w.name, Seed: cfg.seed, Trace: trace, Metrics: map[string]metric{}}
	var defs []metricDef
	var err error
	fmt.Fprintf(stdout, "hyperbench workload=%s seed=%d seconds=%g trace=%d cpus=%d %s\n",
		cfg.w.name, cfg.seed, cfg.seconds, trace, runtime.NumCPU(), runtime.Version())
	if un := unassigned(); len(un) > 0 {
		fmt.Fprintf(stdout, "unassigned: %s\n", strings.Join(un, " "))
	}
	if trace == 0 {
		defs = endToEnd
		err = measure(cfg, &rep, stdout, stderr)
	} else {
		defs = perLayer()
		err = measureLayers(cfg, &rep, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "hyperbench: %v\n", err)
		return 1
	}
	rep.Correct = rep.Failed == 0
	fmt.Fprintf(stdout, "%-30s %16s %-11s %14s %14s %5s\n", "metric", "value", "unit", "q1", "q3", "n")
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		if !ok {
			fmt.Fprintf(stderr, "hyperbench: metric %s was not measured\n", d.name)
			return 1
		}
		m.Unit = d.unit
		rep.Metrics[d.name] = m
		if m.N == 0 { // a single reading, not a median of samples
			fmt.Fprintf(stdout, "%-30s %16.6g %-11s\n", d.name, m.Value, m.Unit)
			continue
		}
		fmt.Fprintf(stdout, "%-30s %16.6g %-11s %14.6g %14.6g %5d\n", d.name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
	}
	if len(rep.Metrics) != len(defs) {
		fmt.Fprintf(stderr, "hyperbench: %d metrics measured, %d defined\n", len(rep.Metrics), len(defs))
		return 1
	}
	fmt.Fprintf(stdout, "%-30s %16.6g %-11s\n", "sim_events", rep.SimEvents, "count/pass")
	fmt.Fprintf(stdout, "%-30s %16.6g %-11s (%d of %d experiment runs)\n", "failed_share",
		float64(rep.Failed)/float64(rep.Attempted), "ratio", rep.Failed, rep.Attempted)
	if outPath != "" {
		if err := appendReport(outPath, rep); err != nil {
			fmt.Fprintf(stderr, "hyperbench: %v\n", err)
			return 1
		}
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]resultVal `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]resultVal{}}
	for name, m := range rep.Metrics {
		line.Metrics[name] = resultVal{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "hyperbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !rep.Correct {
		return 1
	}
	return 0
}

// resultVal is a metric as the result line carries it.
type resultVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func appendReport(path string, rep report) error {
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tally folds a pass's failures into the report and names them.
func tally(rep *report, label string, p pass, stdout, stderr io.Writer) {
	for _, o := range p.ops {
		rep.Attempted++
		if o.fail != "" {
			rep.Failed++
			fmt.Fprintf(stdout, "FAIL %s %s: %s\n", label, o.id, o.fail)
			fmt.Fprintf(stderr, "hyperbench: FAIL %s %s: %s\n", label, o.id, o.fail)
		}
	}
}

// coldPass is the body of a `-mode cold` child: one pass in a fresh
// process, so that whatever a first use pays is paid inside it.
func coldPass(w workload, seed uint64, stderr io.Writer) int {
	exps, err := w.resolve()
	if err != nil {
		fmt.Fprintf(stderr, "hyperbench: %v\n", err)
		return 1
	}
	var rep report
	tally(&rep, "cold", runPass(exps, sim.NewRand(seed).Perm(len(exps)), nil, ""), io.Discard, stderr)
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// timeColds starts the workload's number of fresh copies of this
// program in cold mode (none in smoke mode), one after another, and returns how long each took from start to exit:
// process start, package initialisation and the cold pass.
func timeColds(cfg runCfg, rep *report, stderr io.Writer) ([]float64, error) {
	if cfg.smoke {
		return nil, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own executable for cold passes: %w", err)
	}
	var secs []float64
	for i := 0; i < cfg.w.colds; i++ {
		cmd := exec.Command(self, "-mode", "cold", "-workload", cfg.w.name, "-seed", fmt.Sprint(cfg.seed))
		cmd.Stderr = stderr
		var runErr error
		secs = append(secs, timed(func() { runErr = cmd.Run() }).Seconds())
		rep.Attempted += len(cfg.w.ids)
		var exit *exec.ExitError
		switch {
		case runErr == nil:
		case errors.As(runErr, &exit):
			rep.Failed += len(cfg.w.ids) // the child named the failing runs on stderr
		default:
			return nil, fmt.Errorf("cold pass: %w", runErr)
		}
	}
	return secs, nil
}

// sampleSet collects per-pass samples and reduces each to its median
// and quartiles.
type sampleSet map[string][]float64

func (s sampleSet) add(p pass) {
	s["wall_s"] = append(s["wall_s"], p.wall.Seconds())
	s["cpu_s"] = append(s["cpu_s"], p.cpu.Seconds())
	s["allocs"] = append(s["allocs"], float64(p.allocs))
	s["alloc_mb"] = append(s["alloc_mb"], float64(p.bytes)/1e6)
	s["sim.events"] = append(s["sim.events"], float64(p.events))
	s["runtime.gc_cycles"] = append(s["runtime.gc_cycles"], float64(p.gcCycles))
	s["runtime.gc_pause_ms"] = append(s["runtime.gc_pause_ms"], float64(p.gcPauseNs)/1e6)
}

func (s sampleSet) metric(name string) metric {
	q1, med, q3 := quartiles(s[name])
	return metric{Value: med, Q1: q1, Q3: q3, N: len(s[name])}
}

// passes runs the cold pass and then timed passes until both the time
// box and the pass floor are met. sp is nil for untraced passes.
func passes(cfg runCfg, rep *report, seconds float64, floor int, ord *sim.Rand, sp *spans, label string, stdout, stderr io.Writer) (sampleSet, error) {
	exps, err := cfg.w.resolve()
	if err != nil {
		return nil, err
	}
	set := sampleSet{}
	start := now()
	for n := 0; n < floor || now().Sub(start).Seconds() < seconds; n++ {
		p := runPass(exps, ord.Perm(len(exps)), sp, fmt.Sprintf("%s:%s:%d", cfg.w.name, label, n))
		tally(rep, fmt.Sprintf("%s pass %d", label, n), p, stdout, stderr)
		set.add(p)
	}
	return set, nil
}

// measure is the untraced run: setup_s from cold processes, then the
// per-pass medians.
func measure(cfg runCfg, rep *report, stdout, stderr io.Writer) error {
	colds, err := timeColds(cfg, rep, stderr)
	if err != nil {
		return err
	}
	ord := sim.NewRand(cfg.seed)
	// The in-process cold pass warms this process; it is a setup_s
	// sample only when no child processes were timed (smoke mode).
	cold, err := passes(cfg, rep, 0, 1, ord, nil, "cold", stdout, stderr)
	if err != nil {
		return err
	}
	if len(colds) == 0 {
		colds = cold["wall_s"]
	}
	set, err := passes(cfg, rep, cfg.seconds, cfg.floor(minPasses), ord, nil, "warm", stdout, stderr)
	if err != nil {
		return err
	}
	set["setup_s"] = colds
	for _, d := range endToEnd {
		rep.Metrics[d.name] = set.metric(d.name)
	}
	rep.SimEvents = set.metric("sim.events").Value
	return nil
}

// measureLayers is the traced run. It takes untraced passes first (the
// base of bench.trace_overhead_ratio and of the per-pass counters),
// then passes with host spans under the CPU profiler, then the counters
// the simulator exports and the layer probes.
func measureLayers(cfg runCfg, rep *report, stdout, stderr io.Writer) error {
	vals := map[string]float64{}
	ord := sim.NewRand(cfg.seed)
	if _, err := passes(cfg, rep, 0, 1, ord, nil, "cold", stdout, stderr); err != nil {
		return err
	}
	floor := cfg.floor(3)
	plain, err := passes(cfg, rep, cfg.seconds/4, floor, ord, nil, "untraced", stdout, stderr)
	if err != nil {
		return err
	}

	sp := newSpans()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	// At 100 Hz a share needs some hundreds of samples to settle: hold the
	// profiler for at least 8 s of passes when the run has the time.
	profiled := cfg.seconds * 0.4
	if cfg.seconds > 0 && profiled < 8 {
		profiled = 8
	}
	traced, err := passes(cfg, rep, profiled, floor, ord, sp, "traced", stdout, stderr)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	shares, samples, err := attribute(prof.Bytes())
	if err != nil {
		return err
	}
	var shareSum float64
	for l, s := range shares {
		vals[l+".cpu_share"] = s
		shareSum += s
	}

	// Host spans: one per experiment per traced pass. A pass's self time
	// is what its experiment spans leave uncovered; it should be nothing.
	for _, w := range workloads {
		for _, id := range w.ids {
			_, med, _ := quartiles(sp.byName(id))
			vals["bench."+id+"_ms"] = med * 1e3
		}
	}
	var self []float64
	for _, s := range sp.log {
		if s.parent == 0 {
			self = append(self, sp.selfTime(s.id).Seconds())
		}
	}
	_, passSelf, _ := quartiles(self)
	tracedWall := traced.metric("wall_s").Value
	plainWall := plain.metric("wall_s").Value
	vals["bench.trace_overhead_ratio"] = tracedWall / plainWall
	events := plain.metric("sim.events").Value
	rep.SimEvents = events
	vals["sim.ns_per_event"] = 0
	if events > 0 {
		vals["sim.ns_per_event"] = plainWall * 1e9 / events
	}

	for _, name := range []string{"sim.windows", "sim.stall_share", "sim.shard2_speedup", "sim.busy_events_per_s"} {
		vals[name] = 0
	}
	if cfg.scope["E17"] {
		id := sp.begin("racksweep", 0)
		rackCounters(vals)
		sp.end(id)
	}
	if err := telemetryCounters(cfg.scope, sp, vals); err != nil {
		return err
	}
	runProbes(cfg.smoke, sp, vals)
	_, vals["runtime.rss_peak_mb"] = cpuTime()

	path := cfg.traceFile
	if path == "" {
		path = filepath.Join(".bench_build", "hyperbench."+cfg.w.name+".trace.json")
	}
	data := sp.chromeTrace("hyperbench " + cfg.w.name)
	if err := telemetry.ValidateChromeTrace(data); err != nil {
		return fmt.Errorf("host span file does not validate: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}

	for name, v := range vals {
		rep.Metrics[name] = metric{Value: v}
	}
	for _, name := range []string{"sim.events", "runtime.gc_cycles", "runtime.gc_pause_ms"} {
		rep.Metrics[name] = plain.metric(name)
	}
	fmt.Fprintf(stdout, "host spans: %d in %s\n", len(sp.log), path)
	fmt.Fprintf(stdout, "cpu profile: %d samples, layer shares sum to %.2f %%\n", samples, shareSum)
	fmt.Fprintf(stdout, "traced pass wall %.6g s (q1 %.6g, q3 %.6g, n %d), of which outside its experiment spans %.3g s\n",
		tracedWall, traced.metric("wall_s").Q1, traced.metric("wall_s").Q3, len(traced["wall_s"]), passSelf)
	return nil
}

// quartiles returns the first quartile, median and third quartile of v
// the way Python's statistics.quantiles(v, n=4) does (exclusive
// method), so the numbers printed here can be checked against the
// driver's. Fewer than two samples have no spread.
func quartiles(v []float64) (q1, med, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		n := len(s)
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
