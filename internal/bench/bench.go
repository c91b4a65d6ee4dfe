// Package bench implements the paper-reproduction harness: one function
// per experiment in DESIGN.md's index (All lists them), each
// regenerating the corresponding table or figure of the HotOS'23 paper,
// or an extension of it, as printable rows. cmd/benchctl runs them from
// the command line; the repository-root bench_test.go wraps them as
// testing.B benchmarks; cmd/hyperbench measures what they cost the
// host; EXPERIMENTS.md records their output against the paper's claims.
package bench

import (
	"fmt"

	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// Result is one experiment's rendered output. SimTime and Steps
// summarize the simulation work behind it: the furthest virtual clock
// and the total events executed across every Engine the experiment ran
// (zero for purely analytic experiments like E1).
type Result struct {
	ID      string
	Title   string
	Table   sim.Table
	Notes   []string
	SimTime sim.Time
	Steps   uint64
}

// observe folds an engine's clock and step count into the result; an
// experiment calls it once per Engine it drove, before returning.
func (r *Result) observe(engines ...*sim.Engine) {
	for _, e := range engines {
		r.Steps += e.Steps()
		if e.Now() > r.SimTime {
			r.SimTime = e.Now()
		}
	}
}

// String renders the result.
func (r Result) String() string {
	out := fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Table.String())
	for _, n := range r.Notes {
		out += "   " + n + "\n"
	}
	return out
}

// DefaultSeed is the seed behind Run() and every golden table: all
// EXPERIMENTS.md output and the pinned table hashes are the
// DefaultSeed universe. Other seeds exist for the metamorphic
// determinism sweep (same seed → byte-identical tables, twice over).
const DefaultSeed uint64 = 1

// Experiment couples an id with its seeded runner. RunTraced, where
// present, is the same experiment with the telemetry plane armed on a
// caller-supplied recorder: spans, histograms, and counters accumulate
// on rec while the produced Result must stay byte-identical to
// RunSeeded at the same seed (tracing observes the simulation, it
// never perturbs it).
type Experiment struct {
	ID        string
	Name      string
	RunSeeded func(seed uint64) Result
	RunTraced func(seed uint64, rec *telemetry.Recorder) Result
	// RunSharded, where present, is the same experiment with an
	// explicit sim.Cluster shard count. Its Result must be
	// byte-identical to RunSeeded at the same seed for every shard
	// count — the knob changes the layout, never the physics.
	RunSharded func(seed uint64, shards int) Result
}

// Run executes the experiment at DefaultSeed — the golden universe.
func (e Experiment) Run() Result { return e.RunSeeded(DefaultSeed) }

// RunAt executes the experiment at DefaultSeed under an explicit
// cluster shard count. Experiments without a sharded form ignore the
// count — their single engine is already the 1-shard layout — so
// `benchctl -shards N all` is well-defined for the whole suite.
func (e Experiment) RunAt(shards int) Result {
	if shards > 0 && e.RunSharded != nil {
		return e.RunSharded(DefaultSeed, shards)
	}
	return e.RunSeeded(DefaultSeed)
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Name: "table1", RunSeeded: Table1},
		{ID: "E2", Name: "fig2", RunSeeded: Fig2, RunTraced: Fig2Traced},
		{ID: "E3", Name: "energy", RunSeeded: Energy},
		{ID: "E4", Name: "reconfig", RunSeeded: Reconfig},
		{ID: "E5", Name: "jitter", RunSeeded: Predictability},
		{ID: "E6", Name: "segtable", RunSeeded: SegmentVsPage},
		{ID: "E7", Name: "chase", RunSeeded: PointerChase, RunTraced: PointerChaseTraced},
		{ID: "E8", Name: "fail2ban", RunSeeded: Fail2ban},
		{ID: "E9", Name: "lb", RunSeeded: LoadBalancer},
		{ID: "E10", Name: "ebpf", RunSeeded: EBPFPipeline},
		{ID: "E11", Name: "corfu", RunSeeded: Corfu},
		{ID: "E12", Name: "scan", RunSeeded: ColumnarScan},
		{ID: "E13", Name: "kv", RunSeeded: KVStore},
		{ID: "E14", Name: "nvmeof", RunSeeded: NVMeoF},
		// Extensions beyond the paper's own artifacts.
		{ID: "X1", Name: "cluster", RunSeeded: ClusterScaleOut},
		{ID: "E16", Name: "chaos", RunSeeded: Chaos, RunTraced: ChaosTraced},
		{ID: "E17", Name: "rack", RunSeeded: Rack, RunTraced: RackTraced, RunSharded: RackSharded},
		{ID: "E18", Name: "tenants", RunSeeded: Tenants, RunTraced: TenantsTraced, RunSharded: TenantsSharded},
	}
}

// ByName finds an experiment by id or name.
func ByName(s string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == s || e.Name == s {
			return e, true
		}
	}
	return Experiment{}, false
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func itoa(n int64) string { return fmt.Sprintf("%d", n) }
