package tenant

import (
	"fmt"
	"testing"

	"hyperion/internal/fabric"
	"hyperion/internal/sim"
)

// The scheduler property sweep: seeded random tapes of
// arrive/depart/advance/submit operations drive the controller, and
// after every operation the conservation, exclusivity, and
// fabric-agreement invariants must hold. On failure the tape is shrunk
// by prefix replay — the runner is a pure function of (seed, nops), so
// replaying with a smaller nops reproduces the exact prefix — and the
// minimal failing prefix is reported op by op.

// tapeResult carries what a tape run observed.
type tapeResult struct {
	ops      []string // rendered tape, one line per op
	accepted int      // Submit calls that returned nil
	resolved int      // done callbacks fired
	failErr  error    // first invariant violation (nil if clean)
	failOp   int      // op index at which it tripped
}

// runTape executes the first nops operations of the tape derived from
// seed. Everything — op choice, specs, timings — is drawn from one
// sim.Rand, so (seed, nops) fully determines the run.
func runTape(seed uint64, nops int) tapeResult {
	eng := sim.NewEngine(seed)
	fab := fabric.New(eng, fabric.DefaultConfig(), "tag")
	cfg := DefaultConfig()
	cfg.MaxTenants = 10
	cfg.DepthItems = 16
	rng := sim.NewRand(seed)
	if rng.Intn(2) == 1 {
		cfg.Lease = 300 * sim.Microsecond
	}
	c := New(eng, fab, cfg)
	res := tapeResult{failOp: -1}
	var live []int
	nextName := 0
	record := func(format string, args ...any) {
		res.ops = append(res.ops, fmt.Sprintf(format, args...))
	}
	for i := 0; i < nops; i++ {
		switch rng.Intn(5) {
		case 0, 1: // arrive (weighted: churn needs arrivals)
			spec := Spec{
				Name:   fmt.Sprintf("t%03d", nextName),
				Weight: 1 + rng.Intn(8),
				Image:  testImage(fmt.Sprintf("img%03d", nextName), 1+int64(rng.Intn(4))),
			}
			nextName++
			tn, err := c.Admit(spec)
			record("arrive %s w=%d -> %v", spec.Name, spec.Weight, err)
			if err == nil {
				live = append(live, tn.ID)
			}
		case 2: // depart a random live tenant
			if len(live) == 0 {
				record("depart (none live)")
				continue
			}
			k := rng.Intn(len(live))
			id := live[k]
			live = append(live[:k], live[k+1:]...)
			record("depart id=%d", id)
			if err := c.Depart(id); err != nil {
				res.failErr = fmt.Errorf("depart %d: %w", id, err)
				res.failOp = i
				return res
			}
		case 3: // advance sim time
			d := rng.Duration(10*sim.Microsecond, 2*sim.Millisecond)
			record("advance %v", d)
			eng.RunUntil(eng.Now().Add(d))
		case 4: // submit a burst on a random live tenant
			if len(live) == 0 {
				record("submit (none live)")
				continue
			}
			id := live[rng.Intn(len(live))]
			n := 1 + rng.Intn(8)
			record("submit id=%d n=%d", id, n)
			for j := 0; j < n; j++ {
				err := c.Submit(id, nil, 64+rng.Intn(4)*64, func(error) { res.resolved++ })
				if err == nil {
					res.accepted++
				}
			}
		}
		if err := c.CheckInvariants(); err != nil {
			res.failErr = err
			res.failOp = i
			return res
		}
	}
	// Drain: freeze the lease clock so rotation stops, then run out.
	c.SetHorizon(eng.Now())
	eng.Run()
	if err := c.CheckInvariants(); err != nil {
		res.failErr = fmt.Errorf("after drain: %w", err)
		res.failOp = nops
	}
	return res
}

// shrink finds the shortest failing prefix by replaying nops = 1..k.
func shrink(seed uint64, failNops int) tapeResult {
	for n := 1; n <= failNops; n++ {
		if r := runTape(seed, n); r.failErr != nil {
			return r
		}
	}
	return runTape(seed, failNops)
}

func TestSchedulerProperties(t *testing.T) {
	const nops = 120
	seeds := []uint64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89}
	if testing.Short() {
		seeds = seeds[:4]
	}
	for _, seed := range seeds {
		res := runTape(seed, nops)
		if res.failErr != nil {
			min := shrink(seed, res.failOp+1)
			t.Errorf("seed %d: invariant violated at op %d: %v", seed, res.failOp, res.failErr)
			t.Errorf("minimal failing prefix (%d ops):", len(min.ops))
			for i, op := range min.ops {
				t.Errorf("  %3d: %s", i, op)
			}
			continue
		}
		// Every accepted request resolved exactly once — no hangs, no
		// double completions — even across preemptions and departures.
		if res.accepted != res.resolved {
			t.Errorf("seed %d: accepted %d requests but resolved %d", seed, res.accepted, res.resolved)
		}
	}
}

func TestTapeReplayIsDeterministic(t *testing.T) {
	// The shrinking contract: a replayed prefix is the same prefix.
	a := runTape(99, 60)
	b := runTape(99, 60)
	if len(a.ops) != len(b.ops) {
		t.Fatalf("replay produced %d ops vs %d", len(a.ops), len(b.ops))
	}
	for i := range a.ops {
		if a.ops[i] != b.ops[i] {
			t.Fatalf("op %d diverged:\n  %s\n  %s", i, a.ops[i], b.ops[i])
		}
	}
	if a.accepted != b.accepted || a.resolved != b.resolved {
		t.Fatalf("counters diverged: %d/%d vs %d/%d", a.accepted, a.resolved, b.accepted, b.resolved)
	}
	half := runTape(99, 30)
	for i := range half.ops {
		if half.ops[i] != a.ops[i] {
			t.Fatalf("prefix op %d diverged:\n  %s\n  %s", i, half.ops[i], a.ops[i])
		}
	}
}

func TestBoundedWaitUnderLease(t *testing.T) {
	// No starvation: with a positive lease, every admitted tenant —
	// whatever its weight — is placed within tenants × (lease +
	// max reconfig) of queueing, indefinitely.
	eng := sim.NewEngine(1)
	fab := fabric.New(eng, fabric.DefaultConfig(), "tag")
	cfg := DefaultConfig()
	cfg.Lease = 400 * sim.Microsecond
	c := New(eng, fab, cfg)
	horizon := sim.Time(200 * sim.Millisecond)
	c.SetHorizon(horizon)
	const n = 10
	for i := 0; i < n; i++ {
		// Weight 1 vs weight 16 tenants compete; sizes 1–2 MiB.
		w := 1
		if i%2 == 0 {
			w = 16
		}
		if _, err := c.Admit(Spec{
			Name:   fmt.Sprintf("t%02d", i),
			Weight: w,
			Image:  testImage(fmt.Sprintf("i%02d", i), 1+int64(i%2)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(horizon)
	eng.Run()
	// 2 MiB reconfigures in 5 ms; bound with slack.
	bound := sim.Duration(n) * (cfg.Lease + 6*sim.Millisecond)
	for i := 0; i < len(c.tenants); i++ {
		tn, _ := c.lookup(i)
		if tn.Placements == 0 {
			t.Fatalf("tenant %d starved: never placed", i)
		}
		if tn.MaxWait > bound {
			t.Fatalf("tenant %d (weight %d) waited %v, bound %v", i, tn.Spec.Weight, tn.MaxWait, bound)
		}
	}
}
