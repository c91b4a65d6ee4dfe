package baseline

import (
	"container/list"
	"testing"

	"hyperion/internal/sim"
)

func TestTable1PathsShape(t *testing.T) {
	paths := Table1Paths()
	if len(paths) != 6 {
		t.Fatalf("rows = %d, want 6 (one per Table 1 row)", len(paths))
	}
	hy := HyperionPath().Totals()
	if hy.CPUTouches != 0 {
		t.Fatalf("hyperion path touches the CPU %d times", hy.CPUTouches)
	}
	if hy.Copies != 0 {
		t.Fatalf("hyperion path copies %d times", hy.Copies)
	}
	for _, p := range paths {
		tot := p.Totals()
		if tot.CPUTouches == 0 {
			t.Errorf("%s: CPU-centric path with zero CPU touches", p.Model)
		}
		if tot.Latency <= hy.Latency {
			t.Errorf("%s: latency %v not above hyperion %v", p.Model, tot.Latency, hy.Latency)
		}
		if p.Lacks == "" {
			t.Errorf("%s: missing Table-1 gap description", p.Model)
		}
	}
}

func TestTimeSharedCPUJitter(t *testing.T) {
	eng := sim.NewEngine(42)
	cpu := NewTimeSharedCPU(eng, 4)
	var lat sim.LatencyRecorder
	const n = 2000
	done := 0
	// Paced open-loop arrivals at moderate utilization, so the recorded
	// tail reflects scheduling noise rather than pure queueing backlog.
	for i := 0; i < n; i++ {
		at := sim.Time(i) * sim.Time(20*sim.Microsecond)
		eng.At(at, "arrive", func() {
			start := eng.Now()
			cpu.Serve(10*sim.Microsecond, func() {
				lat.Record(eng.Now().Sub(start))
				done++
			})
		})
	}
	eng.Run()
	if done != n {
		t.Fatalf("served %d/%d", done, n)
	}
	// Time sharing must produce a heavy tail: p99 well above p50.
	if lat.Percentile(99) < lat.Percentile(50)*2 {
		t.Fatalf("p99 %v vs p50 %v: expected heavy tail", lat.Percentile(99), lat.Percentile(50))
	}
}

func TestTimeSharedCPUDeterministicPerSeed(t *testing.T) {
	run := func() sim.Duration {
		eng := sim.NewEngine(7)
		cpu := NewTimeSharedCPU(eng, 2)
		var last sim.Time
		for i := 0; i < 100; i++ {
			cpu.Serve(5*sim.Microsecond, func() { last = eng.Now() })
		}
		eng.Run()
		return last.Sub(0)
	}
	if run() != run() {
		t.Fatal("same seed produced different schedules")
	}
}

func TestPageWalkerCosts(t *testing.T) {
	w := NewPageWalker(64)
	// Cold miss: up to 4 DRAM accesses.
	cold := w.Translate(12345)
	if cold < 2*w.DRAMTime || cold > 4*w.DRAMTime {
		t.Fatalf("cold walk = %v, want 2-4 DRAM accesses", cold)
	}
	// Hot hit: free.
	if hot := w.Translate(12345); hot != 0 {
		t.Fatalf("TLB hit cost %v, want 0", hot)
	}
	if w.TLBHits != 1 {
		t.Fatalf("TLB hits = %d", w.TLBHits)
	}
	// Neighbouring page in the same region: PWC absorbs upper levels.
	warm := w.Translate(12346)
	if warm != w.DRAMTime {
		t.Fatalf("PWC-warm walk = %v, want 1 DRAM access", warm)
	}
	// Recorded at the commit before the LRU lost its map. The cold walk
	// already takes a PWC hit: 12345>>27 and 12345>>18 are both key 0
	// (see walkShifts).
	wantCounters(t, w, 3, 1, 4)
}

func TestPageWalkerEviction(t *testing.T) {
	w := NewPageWalker(4)
	for p := uint64(0); p < 100; p++ {
		w.Translate(p << 9) // distinct PD entries, defeat PWC reuse
	}
	if w.Translate(0) == 0 {
		t.Fatal("expected TLB eviction to force a walk")
	}
	wantCounters(t, w, 101, 0, 203)

	// A longer tape with both caches thrashing and refilling: 50 000
	// pages of 256 objects × 512 pages through a 1024-entry TLB, every
	// other access returning to one hot object. Counters recorded at
	// the commit before the LRU lost its map.
	w = NewPageWalker(1024)
	r := sim.NewRand(6)
	for i := 0; i < 50000; i++ {
		obj := uint64(r.Intn(256))
		if i%2 == 0 {
			obj = 7
		}
		w.Translate(obj*512 + uint64(r.Intn(512)))
	}
	wantCounters(t, w, 50000, 18094, 77100)
}

func wantCounters(t *testing.T, w *PageWalker, walks, tlbHits, pwcHits int64) {
	t.Helper()
	if w.Walks != walks || w.TLBHits != tlbHits || w.PWCHits != pwcHits {
		t.Fatalf("Walks/TLBHits/PWCHits = %d/%d/%d, want %d/%d/%d",
			w.Walks, w.TLBHits, w.PWCHits, walks, tlbHits, pwcHits)
	}
}

// refLRU is the textbook form lru replaces: a map for presence and a
// container/list for recency, front = least recently used.
type refLRU struct {
	cap   int
	idx   map[uint64]*list.Element
	order *list.List
}

func (c *refLRU) touch(k uint64) bool {
	if e, ok := c.idx[k]; ok {
		c.order.MoveToBack(e)
		return true
	}
	if len(c.idx) >= c.cap {
		e := c.order.Front()
		c.order.Remove(e)
		delete(c.idx, e.Value.(uint64))
	}
	c.idx[k] = c.order.PushBack(k)
	return false
}

// TestLRUMatchesReference drives lru and the map + container/list model
// with the same random tapes: the same hits, and after every step the
// same least recently used key, which is the next victim. Key spaces
// both smaller and much larger than the capacity, with a clustered key
// family (page numbers of one object) so probe runs form and are closed
// by backward shifts.
func TestLRUMatchesReference(t *testing.T) {
	for _, cap := range []int{1, 2, 64, 1024} {
		for _, space := range []int{cap, 2*cap + 1, 16 * cap} {
			c := newLRU(cap)
			ref := &refLRU{cap: cap, idx: map[uint64]*list.Element{}, order: list.New()}
			r := sim.NewRand(uint64(cap*31 + space))
			for step := 0; step < 40000; step++ {
				k := uint64(r.Intn(space))
				if step%3 == 0 {
					k = k << 9 // the PD-level prefixes E6's pages share
				}
				wantHit := ref.touch(k)
				if hit := c.touch(k); hit != wantHit {
					t.Fatalf("cap %d space %d step %d: touch(%d) = %v, reference says %v", cap, space, step, k, hit, wantHit)
				}
				if got, want := *c.order.At(c.order.Front()), ref.order.Front().Value.(uint64); got != want {
					t.Fatalf("cap %d space %d step %d: next victim %d, reference says %d", cap, space, step, got, want)
				}
				if c.n != len(ref.idx) {
					t.Fatalf("cap %d space %d step %d: %d entries, reference has %d", cap, space, step, c.n, len(ref.idx))
				}
			}
			// Every resident key is still reachable from its home, and
			// nothing else is.
			bound := 0
			for _, s := range c.slots {
				if s.ref != 0 {
					bound++
				}
			}
			if bound != len(ref.idx) {
				t.Fatalf("cap %d space %d: %d slots bound, want %d", cap, space, bound, len(ref.idx))
			}
			for k := range ref.idx {
				if !c.touch(k) {
					t.Fatalf("cap %d space %d: resident key %d not found", cap, space, k)
				}
			}
		}
	}
}

var walkSink sim.Duration

// BenchmarkPageWalkerTranslate is E6's page side at its two extremes: a
// working set the TLB holds (every access one probe and a MoveBack) and
// one 2048× larger (every access a TLB eviction and a PWC walk). Both
// run without allocating once the caches have filled.
func BenchmarkPageWalkerTranslate(b *testing.B) {
	for _, c := range []struct {
		name  string
		pages int
	}{{"resident", 1024}, {"thrashing", 4096 * 512}} {
		b.Run(c.name, func(b *testing.B) {
			w := NewPageWalker(1024)
			r := sim.NewRand(1)
			step := func() { walkSink += w.Translate(uint64(r.Intn(c.pages))) }
			for i := 0; i < 4*c.pages && i < 1<<16; i++ {
				step()
			}
			if n := testing.AllocsPerRun(1000, step); n != 0 {
				b.Fatalf("warm Translate allocated %v times, want 0", n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
