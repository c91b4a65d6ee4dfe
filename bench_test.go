// Package hyperion's repository-root benchmarks: one testing.B benchmark
// per paper table/figure (wrapping internal/bench, the same harness
// cmd/benchctl runs), so `go test -bench=.` regenerates every
// experiment. Each bench reports the experiment's headline metric via
// b.ReportMetric in addition to wall-clock time of the simulation.
package hyperion

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"hyperion/internal/bench"
)

// runExperiment executes one experiment per benchmark iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ByName(id)
	if !ok {
		b.Fatalf("no experiment %s", id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := e.Run()
		if len(r.Table.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkTable1_IntegrationModels(b *testing.B)    { runExperiment(b, "E1") }
func BenchmarkFigure2_EndToEndPath(b *testing.B)        { runExperiment(b, "E2") }
func BenchmarkEnergy_VolumeAndTDP(b *testing.B)         { runExperiment(b, "E3") }
func BenchmarkReconfig_ICAPWindow(b *testing.B)         { runExperiment(b, "E4") }
func BenchmarkPredictability_SpatialSlots(b *testing.B) { runExperiment(b, "E5") }
func BenchmarkSegmentVsPage_Translation(b *testing.B)   { runExperiment(b, "E6") }
func BenchmarkPointerChase_RTTs(b *testing.B)           { runExperiment(b, "E7") }
func BenchmarkFail2ban_Middleware(b *testing.B)         { runExperiment(b, "E8") }
func BenchmarkLoadBalancer_SSDSpill(b *testing.B)       { runExperiment(b, "E9") }
func BenchmarkEBPF_VerifyWarpPipeline(b *testing.B)     { runExperiment(b, "E10") }
func BenchmarkCorfu_SharedLog(b *testing.B)             { runExperiment(b, "E11") }
func BenchmarkColumnarScan_Pushdown(b *testing.B)       { runExperiment(b, "E12") }
func BenchmarkKV_YCSBBackends(b *testing.B)             { runExperiment(b, "E13") }
func BenchmarkNVMeoF_Transports(b *testing.B)           { runExperiment(b, "E14") }
func BenchmarkChaos_FaultInjection(b *testing.B)        { runExperiment(b, "E16") }
func BenchmarkRack_ScaleOut(b *testing.B)               { runExperiment(b, "E17") }
func BenchmarkTenants_MultiTenantSLO(b *testing.B)      { runExperiment(b, "E18") }

// TestAllExperimentsProduceOutput is the integration smoke test: every
// experiment runs to completion and emits a plausible table. Subtests
// run in parallel — each experiment owns a private engine, so this both
// shortens the suite and doubles as a data-race check under -race.
func TestAllExperimentsProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavyweight")
	}
	for _, e := range bench.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			r := e.Run()
			if len(r.Table.Rows) == 0 {
				t.Fatalf("%s: empty table", e.ID)
			}
			if len(r.Table.Header) == 0 {
				t.Fatalf("%s: no header", e.ID)
			}
			for i, row := range r.Table.Rows {
				if len(row) != len(r.Table.Header) {
					t.Fatalf("%s: row %d has %d cells, header has %d", e.ID, i, len(row), len(r.Table.Header))
				}
			}
		})
	}
}

// goldenTableHashes pins SHA-256(Table.String()) for every experiment.
// These are cross-revision golden values: they were captured from the
// seed revision's output and must survive kernel rewrites untouched —
// any change here means a perf change leaked into the model's results.
// The one copy is hyperbench's, which gates the same tables.
func goldenTableHashes(t testing.TB) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("cmd/hyperbench/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var hashes map[string]string
	if err := json.Unmarshal(raw, &hashes); err != nil {
		t.Fatalf("cmd/hyperbench/golden.json: %v", err)
	}
	return hashes
}

// TestExperimentsDeterministic asserts the simulation's core promise:
// same seed, same virtual-time results. Every experiment must (a) give
// byte-identical tables across two in-process runs and (b) match the
// golden cross-revision hash captured from the seed revision.
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavyweight")
	}
	golden := goldenTableHashes(t)
	for _, e := range bench.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			r1, r2 := e.Run(), e.Run()
			a, b := r1.Table.String(), r2.Table.String()
			if a != b {
				t.Fatalf("%s not deterministic:\n--- first ---\n%s\n--- second ---\n%s", e.ID, a, b)
			}
			want, ok := golden[e.ID]
			if !ok {
				t.Fatalf("%s has no golden hash; add it to cmd/hyperbench/golden.json", e.ID)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(a))); got != want {
				t.Errorf("%s table drifted from the golden seed output:\n got %s\nwant %s\n%s", e.ID, got, want, a)
			}
		})
	}
}

// TestRunAllParallelMatchesSequential pins RunAll's fan-out contract:
// the GOMAXPROCS worker count changes wall time only, never results.
// It flips GOMAXPROCS and so does not run in parallel with other tests.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavyweight")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seq := bench.RunAll(0)
	runtime.GOMAXPROCS(4)
	par := bench.RunAll(0)
	if len(seq) != len(par) {
		t.Fatalf("outcome counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		a, b := seq[i].Result.String(), par[i].Result.String()
		if a != b {
			t.Errorf("%s: parallel run diverged from sequential:\n--- seq ---\n%s\n--- par ---\n%s",
				seq[i].Exp.ID, a, b)
		}
	}
}
