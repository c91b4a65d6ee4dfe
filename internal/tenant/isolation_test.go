package tenant

import (
	"math/bits"
	"testing"

	"hyperion/internal/fabric"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// latBucket maps a latency onto the telemetry plane's log2 histogram
// bucket (histogram.go bucketOf): "within one bucket" is the repo's
// standard isolation tolerance.
func latBucket(d sim.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// quietRun drives a quiet tenant (one 64-byte request every 10 µs for
// 5 ms) and, when withSaturator is set, a neighbor that keeps its FIFO
// permanently backlogged with 256-byte items. Returns the quiet
// tenant's latency book.
func quietRun(t *testing.T, withSaturator bool) *sim.LatencyRecorder {
	t.Helper()
	eng := sim.NewEngine(1)
	fab := fabric.New(eng, fabric.DefaultConfig(), "tag")
	cfg := DefaultConfig()
	cfg.DepthItems = 64
	c := New(eng, fab, cfg)
	quiet, err := c.Admit(Spec{Name: "quiet", Weight: 8, Image: testImage("quiet", 1)})
	if err != nil {
		t.Fatal(err)
	}
	var sat *Tenant
	if withSaturator {
		if sat, err = c.Admit(Spec{Name: "sat", Weight: 1, Image: testImage("sat", 1)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run() // activate; the clock now sits at the reconfiguration end
	base := eng.Now()
	horizon := base.Add(5 * sim.Millisecond)
	for ti := base; ti < horizon; ti = ti.Add(10 * sim.Microsecond) {
		eng.At(ti.Add(sim.Microsecond), "quiet.submit", func() {
			if err := c.Submit(quiet.ID, nil, 64, nil); err != nil {
				t.Errorf("quiet submit: %v", err)
			}
		})
	}
	if withSaturator {
		// Refill the saturator's FIFO to the brim every microsecond;
		// Shed counts what the box turns away.
		for ti := base; ti < horizon; ti = ti.Add(sim.Microsecond) {
			eng.At(ti, "sat.submit", func() {
				for j := 0; j < 64; j++ {
					if err := c.Submit(sat.ID, nil, 256, nil); err != nil {
						return // FIFO full: exactly the point
					}
				}
			})
		}
	}
	eng.Run()
	if quiet.Completed == 0 {
		t.Fatal("quiet tenant completed nothing")
	}
	if withSaturator && sat.Shed == 0 {
		t.Fatal("saturator never hit backpressure — not saturating")
	}
	return &quiet.Lat
}

func TestQuietTenantP99Isolation(t *testing.T) {
	// The tenant-datapath extension of fabric's TestSpatialIsolation: a
	// saturating neighbor on the shared WFQ bus must not move a quiet
	// tenant's p99 by more than one log2 histogram bucket.
	alone := quietRun(t, false)
	shared := quietRun(t, true)
	pa, ps := alone.Percentile(99), shared.Percentile(99)
	ba, bs := latBucket(pa), latBucket(ps)
	if bs-ba > 1 || ba > bs {
		t.Fatalf("quiet p99 moved %d buckets under saturation: alone %v (bucket %d) vs shared %v (bucket %d)",
			bs-ba, pa, ba, ps, bs)
	}
}

// reconfigLoadRun drives tenant A with a steady stream while tenant B
// is admitted mid-run (partial reconfiguration under live traffic) and
// departs later. It returns A's completion timeline.
func reconfigLoadRun(t *testing.T, rec *telemetry.Recorder) (seqs []int, times []sim.Time) {
	t.Helper()
	eng := sim.NewEngine(1)
	fab := fabric.New(eng, fabric.DefaultConfig(), "tag")
	c := New(eng, fab, DefaultConfig())
	c.SetRecorder(rec)
	a, err := c.Admit(Spec{Name: "steady", Weight: 2, Image: testImage("steady", 1)})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run() // activate; the clock now sits at the reconfiguration end
	base := eng.Now()
	horizon := base.Add(20 * sim.Millisecond)
	seq := 0
	for ti := base; ti < horizon; ti = ti.Add(5 * sim.Microsecond) {
		s := seq
		seq++
		eng.At(ti.Add(sim.Microsecond), "steady.submit", func() {
			if err := c.Submit(a.ID, nil, 128, func(err error) {
				if err != nil {
					t.Errorf("steady request %d failed during reconfig-under-load: %v", s, err)
				}
				seqs = append(seqs, s)
				times = append(times, eng.Now())
			}); err != nil {
				t.Errorf("steady submit %d: %v", s, err)
			}
		})
	}
	// B arrives at 5 ms (8 MiB image: ~20 ms of ICAP traffic — the
	// reconfiguration brackets A's entire remaining stream), departs at
	// 15 ms while... still reconfiguring; then C arrives and activates.
	eng.At(base.Add(5*sim.Millisecond), "b.arrive", func() {
		if _, err := c.Admit(Spec{Name: "late-b", Weight: 4, Image: testImage("b", 8)}); err != nil {
			t.Errorf("admit b: %v", err)
		}
	})
	eng.At(base.Add(15*sim.Millisecond), "b.depart", func() {
		tb, _ := c.lookup(1)
		if err := c.Depart(tb.ID); err != nil {
			t.Errorf("depart b: %v", err)
		}
		if _, err := c.Admit(Spec{Name: "late-c", Weight: 1, Image: testImage("c", 2)}); err != nil {
			t.Errorf("admit c: %v", err)
		}
	})
	eng.Run()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != seq {
		t.Fatalf("lost requests under reconfig load: %d of %d completed", len(seqs), seq)
	}
	return seqs, times
}

func TestReconfigUnderLoadLosesNothing(t *testing.T) {
	seqs, _ := reconfigLoadRun(t, nil)
	for i, s := range seqs {
		if s != i {
			t.Fatalf("completion %d out of order: got seq %d", i, s)
		}
	}
}

func TestReconfigUnderLoadArmedEqualsDisarmed(t *testing.T) {
	// PR-5 contract on the new plane: arming telemetry must not move a
	// single completion by a picosecond.
	s0, t0 := reconfigLoadRun(t, nil)
	rec := telemetry.NewRecorder("tenant-iso")
	s1, t1 := reconfigLoadRun(t, rec)
	if len(s0) != len(s1) {
		t.Fatalf("armed run completed %d vs %d", len(s1), len(s0))
	}
	for i := range s0 {
		if s0[i] != s1[i] || t0[i] != t1[i] {
			t.Fatalf("armed telemetry perturbed completion %d: (%d,%v) vs (%d,%v)",
				i, s0[i], t0[i], s1[i], t1[i])
		}
	}
	if rec.Events() == 0 {
		t.Fatal("armed recorder captured nothing")
	}
	// The per-tenant child histogram is the SLO book of record: it must
	// agree with the scheduler's own latency recorder on the p99 bucket.
	if h := rec.Hist("wfq", "tenant.in0"); h == nil || h.Count() == 0 {
		t.Fatal("per-port WFQ histogram missing")
	}
}
