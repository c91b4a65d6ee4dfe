package hyperion

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"hyperion/internal/bench"
	"hyperion/internal/netsim"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// TestMetamorphicDeterminism is the seed-sweep form of the determinism
// contract: for EVERY experiment and a spread of seeds (not just the
// golden DefaultSeed), two runs at the same seed must render
// byte-identical tables. hyperlint proves the absence of banned
// nondeterminism sources syntactically; this catches what analysis
// can't see — map-order leaks, engine-sharing bugs, stale package
// state — because such bugs almost never reproduce identically twice
// across five different seeds. Subtests run in parallel; every
// experiment owns private engines.
func TestMetamorphicDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment 10 times")
	}
	seeds := []uint64{1, 2, 3, 5, 8}
	for _, e := range bench.All() {
		for _, seed := range seeds {
			e, seed := e, seed
			t.Run(fmt.Sprintf("%s/seed%d", e.ID, seed), func(t *testing.T) {
				t.Parallel()
				r1 := e.RunSeeded(seed)
				r2 := e.RunSeeded(seed)
				a, b := r1.Table.String(), r2.Table.String()
				if a != b {
					t.Fatalf("%s diverged across two runs at seed %d:\n--- first ---\n%s\n--- second ---\n%s",
						e.ID, seed, a, b)
				}
				if r1.Steps != r2.Steps {
					t.Fatalf("%s: event counts diverged at seed %d: %d vs %d (tables matched — nondeterminism is off-table)",
						e.ID, seed, r1.Steps, r2.Steps)
				}
				if r1.SimTime != r2.SimTime {
					t.Fatalf("%s: final virtual clocks diverged at seed %d: %v vs %v",
						e.ID, seed, r1.SimTime, r2.SimTime)
				}
				if len(r1.Table.Rows) == 0 {
					t.Fatalf("%s produced no rows at seed %d", e.ID, seed)
				}
			})
		}
	}
}

// TestShardCountInvariance is the PDES kernel's headline metamorphic
// relation: the shard count is a layout knob, never a physics knob.
// E17's table, event count, and final virtual clock must be
// byte-identical for every shard count at every seed, and the windowed
// (sim.Cluster-hosted, 1-shard) form of the existing X1 scale-out
// experiment must reproduce the plain single-engine run exactly —
// proving the barrier kernel adds no observable behavior of its own.
func TestShardCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the rack scenario at four shard counts per seed")
	}
	seeds := []uint64{1, 2, 3}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("E17/seed%d", seed), func(t *testing.T) {
			t.Parallel()
			base := bench.RackSharded(seed, 1)
			for _, shards := range []int{2, 4, 8} {
				r := bench.RackSharded(seed, shards)
				if got, want := r.Table.String(), base.Table.String(); got != want {
					t.Errorf("E17 at %d shards diverged from 1 shard at seed %d:\n--- %d shards ---\n%s\n--- 1 shard ---\n%s",
						shards, seed, shards, got, want)
				}
				if r.Steps != base.Steps {
					t.Errorf("E17 at %d shards ran %d events, 1 shard ran %d (seed %d)",
						shards, r.Steps, base.Steps, seed)
				}
				if r.SimTime != base.SimTime {
					t.Errorf("E17 at %d shards ended at %v, 1 shard at %v (seed %d)",
						shards, r.SimTime, base.SimTime, seed)
				}
			}
		})
		t.Run(fmt.Sprintf("E18/seed%d", seed), func(t *testing.T) {
			t.Parallel()
			base := bench.TenantsSharded(seed, 1)
			for _, shards := range []int{2, 4} {
				r := bench.TenantsSharded(seed, shards)
				if got, want := r.Table.String(), base.Table.String(); got != want {
					t.Errorf("E18 at %d shards diverged from 1 shard at seed %d:\n--- %d shards ---\n%s\n--- 1 shard ---\n%s",
						shards, seed, shards, got, want)
				}
				if r.Steps != base.Steps {
					t.Errorf("E18 at %d shards ran %d events, 1 shard ran %d (seed %d)",
						shards, r.Steps, base.Steps, seed)
				}
				if r.SimTime != base.SimTime {
					t.Errorf("E18 at %d shards ended at %v, 1 shard at %v (seed %d)",
						shards, r.SimTime, base.SimTime, seed)
				}
			}
		})
		t.Run(fmt.Sprintf("X1/seed%d", seed), func(t *testing.T) {
			t.Parallel()
			plain := bench.ClusterScaleOut(seed)
			windowed := bench.ClusterScaleOutWindowed(seed)
			if got, want := windowed.Table.String(), plain.Table.String(); got != want {
				t.Errorf("X1 under sim.Cluster diverged from the plain engine at seed %d:\n--- windowed ---\n%s\n--- plain ---\n%s",
					seed, got, want)
			}
			if windowed.Steps != plain.Steps {
				t.Errorf("X1 under sim.Cluster ran %d events, plain engine ran %d (seed %d)",
					windowed.Steps, plain.Steps, seed)
			}
			// The cluster clock legitimately rests at the final barrier
			// window's deadline, at most one lookahead past the plain
			// engine's last event — never before it.
			if d := windowed.SimTime.Sub(plain.SimTime); d < 0 || d > netsim.DefaultConfig().Lookahead() {
				t.Errorf("X1 under sim.Cluster ended at %v, plain at %v — outside one lookahead window (seed %d)",
					windowed.SimTime, plain.SimTime, seed)
			}
		})
	}
}

// TestTenantRelabelingInvariance pins E18's naming contract: tenant
// display names are pure labels. Re-running one sweep cell with every
// name mapped through a sort-order-scrambling rename must permute the
// per-tenant report rows — each renamed row carrying exactly the
// original's values — and leave the cell's summary table byte-identical
// (the summary carries no names, only physics).
func TestTenantRelabelingInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tenant scenario repeatedly")
	}
	rename := func(s string) string {
		// Map the leading letter a↔z, b↔y, … so lexicographic order of
		// the renamed set differs from the original's.
		return fmt.Sprintf("r%c-%s", 'z'-s[0]+'a', s)
	}
	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			baseRes, baseRows := bench.TenantScenario(seed, 10, 2*sim.Millisecond, 0.01)
			renRes, renRows := bench.TenantScenarioRelabeled(seed, 10, 2*sim.Millisecond, 0.01, rename)
			if got, want := renRes.Table.String(), baseRes.Table.String(); got != want {
				t.Errorf("relabeling changed the summary at seed %d:\n--- renamed ---\n%s\n--- base ---\n%s", seed, got, want)
			}
			if len(renRows) != len(baseRows) {
				t.Fatalf("row counts differ: %d vs %d", len(renRows), len(baseRows))
			}
			for _, b := range baseRows {
				want := b
				want.Name = rename(b.Name)
				found := false
				for _, r := range renRows {
					if r.Name == want.Name {
						if r != want {
							t.Errorf("seed %d: tenant %q changed values under renaming:\n got %+v\nwant %+v", seed, b.Name, r, want)
						}
						found = true
						break
					}
				}
				if !found {
					t.Errorf("seed %d: no renamed row for tenant %q", seed, b.Name)
				}
			}
			for i := 1; i < len(renRows); i++ {
				if renRows[i-1].Name > renRows[i].Name {
					t.Errorf("seed %d: renamed report not sorted by the new names", seed)
				}
			}
		})
	}
}

// tracedDump bundles every armed-run artifact whose bytes the traced
// determinism sweep compares.
type tracedDump struct {
	table string
	trace []byte
	hist  string
	crit  string
}

func runTraced(t *testing.T, e bench.Experiment, seed uint64) tracedDump {
	t.Helper()
	res, rec, ok := bench.RunTracedExperiment(e, seed)
	if !ok {
		t.Fatalf("%s lost its traced form", e.ID)
	}
	if rec.Events() == 0 {
		t.Fatalf("%s recorded no spans while armed at seed %d", e.ID, seed)
	}
	return tracedDump{
		table: res.Table.String(),
		trace: rec.ChromeTrace(),
		hist:  rec.HistogramDump(),
		crit:  rec.CriticalPath(),
	}
}

// TestTracedMetamorphicDeterminism extends the seed sweep to the armed
// telemetry plane: for every traced experiment and seed, two armed runs
// must produce byte-identical trace JSON, histogram dumps, and
// critical-path summaries; the armed table must equal the disarmed
// table at the same seed (tracing is observation, never perturbation);
// and at the golden DefaultSeed the armed table must still hash to the
// cross-revision golden value.
func TestTracedMetamorphicDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every traced experiment repeatedly")
	}
	seeds := []uint64{1, 2, 3}
	golden := goldenTableHashes(t)
	for _, e := range bench.All() {
		if e.RunTraced == nil {
			continue
		}
		for _, seed := range seeds {
			e, seed := e, seed
			t.Run(fmt.Sprintf("%s/seed%d", e.ID, seed), func(t *testing.T) {
				t.Parallel()
				d1 := runTraced(t, e, seed)
				d2 := runTraced(t, e, seed)
				if string(d1.trace) != string(d2.trace) {
					t.Errorf("%s: trace JSON diverged across two armed runs at seed %d", e.ID, seed)
				}
				if d1.hist != d2.hist {
					t.Errorf("%s: histogram dump diverged at seed %d:\n--- first ---\n%s\n--- second ---\n%s",
						e.ID, seed, d1.hist, d2.hist)
				}
				if d1.crit != d2.crit {
					t.Errorf("%s: critical-path summary diverged at seed %d:\n--- first ---\n%s\n--- second ---\n%s",
						e.ID, seed, d1.crit, d2.crit)
				}
				if err := telemetry.ValidateChromeTrace(d1.trace); err != nil {
					t.Errorf("%s: armed trace fails schema validation at seed %d: %v", e.ID, seed, err)
				}
				dres := e.RunSeeded(seed)
				disarmed := dres.Table.String()
				if d1.table != disarmed {
					t.Errorf("%s: arming telemetry changed the table at seed %d:\n--- armed ---\n%s\n--- disarmed ---\n%s",
						e.ID, seed, d1.table, disarmed)
				}
				if seed == bench.DefaultSeed {
					want := golden[e.ID]
					if got := fmt.Sprintf("%x", sha256.Sum256([]byte(d1.table))); got != want {
						t.Errorf("%s: armed table drifted from the golden hash:\n got %s\nwant %s", e.ID, got, want)
					}
				}
			})
		}
	}
}
