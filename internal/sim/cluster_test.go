package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

const testLA = 5 * Microsecond

// clusterLog runs a small LP mesh under the given shard count and
// returns a textual log of every delivery, in delivery order per LP.
// The scenario: nLP logical processes, each with a private Rand seeded
// from (seed, lp); each LP starts with one self-scheduled engine event
// and on every envelope received sends to a random peer with a random
// delay ≥ lookahead, until a hop budget runs out. All state is per-LP,
// so the log must be identical for any shard count.
func clusterLog(t *testing.T, shards, nLP int, seed uint64) string {
	t.Helper()
	cl := NewCluster(shards, seed, testLA)
	var logs = make([]*strings.Builder, nLP)
	rngs := make([]*Rand, nLP)
	lps := make([]LP, nLP)
	for i := 0; i < nLP; i++ {
		logs[i] = &strings.Builder{}
		rngs[i] = NewRand(seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15))
		i := i
		lps[i] = cl.AddLP(i%shards, func(sh *Shard, env Envelope) {
			fmt.Fprintf(logs[i], "%d@%d from %d kind=%d a=%d data=%q\n",
				env.Dst, env.At, env.Src, env.Kind, env.A, env.Data)
			if env.A == 0 {
				return // hop budget exhausted
			}
			r := rngs[i]
			peer := lps[r.Intn(nLP)]
			delay := testLA + Duration(r.Intn(1000))*Nanosecond
			sh.Send(env.Dst, peer, delay, env.Kind, env.A-1, env.B, []byte{byte(env.A), byte(i)})
		})
	}
	// Seed traffic: every LP fires one initial send from an engine event.
	for i := 0; i < nLP; i++ {
		i := i
		sh := cl.Shard(i % shards)
		sh.Engine().At(Time(i)*Time(Microsecond), "boot", func() {
			peer := lps[rngs[i].Intn(nLP)]
			sh.Send(lps[i], peer, testLA, 7, 12, 0, []byte("boot"))
		})
	}
	cl.Run()
	var all strings.Builder
	for i := 0; i < nLP; i++ {
		all.WriteString(logs[i].String())
	}
	return all.String()
}

func TestClusterShardCountInvariance(t *testing.T) {
	const nLP = 8
	for _, seed := range []uint64{1, 2, 42} {
		want := clusterLog(t, 1, nLP, seed)
		if want == "" {
			t.Fatalf("seed %d: empty delivery log", seed)
		}
		for _, shards := range []int{2, 4, 8} {
			got := clusterLog(t, shards, nLP, seed)
			if got != want {
				t.Errorf("seed %d: %d-shard log differs from 1-shard log\n1 shard:\n%s\n%d shards:\n%s",
					seed, shards, want, shards, got)
			}
		}
	}
}

func TestClusterRepeatable(t *testing.T) {
	a := clusterLog(t, 4, 8, 3)
	b := clusterLog(t, 4, 8, 3)
	if a != b {
		t.Fatal("same seed, same shard count, different logs")
	}
}

// TestClusterSameTimeOrdering pins the tie-break for envelopes due at
// the same instant: (src LP, send order), regardless of send call
// interleaving or shard layout.
func TestClusterSameTimeOrdering(t *testing.T) {
	for _, shards := range []int{1, 2, 3} {
		cl := NewCluster(shards, 1, testLA)
		var got []string
		sink := cl.AddLP(0, func(sh *Shard, env Envelope) {
			got = append(got, fmt.Sprintf("%d/%d", env.Src, env.A))
		})
		mk := func(shard int) (LP, *Shard) {
			var lp LP
			lp = cl.AddLP(shard%shards, func(sh *Shard, env Envelope) {})
			return lp, cl.Shard(shard % shards)
		}
		a, shA := mk(0)
		b, shB := mk(1)
		// Both LPs target the same delivery instant; b sends first.
		shB.Engine().At(0, "b", func() {
			shB.Send(b, sink, testLA, 0, 1, 0, nil)
			shB.Send(b, sink, testLA, 0, 2, 0, nil)
		})
		shA.Engine().At(0, "a", func() {
			shA.Send(a, sink, testLA, 0, 1, 0, nil)
		})
		cl.Run()
		want := fmt.Sprintf("%d/1,%d/1,%d/2", a, b, b)
		if strings.Join(got, ",") != want {
			t.Errorf("shards=%d: delivery order %v, want %s", shards, got, want)
		}
	}
}

func TestClusterEnvelopeDataCopied(t *testing.T) {
	cl := NewCluster(2, 1, testLA)
	var seen []byte
	sink := cl.AddLP(1, func(sh *Shard, env Envelope) {
		seen = append([]byte(nil), env.Data...)
	})
	src := cl.AddLP(0, func(sh *Shard, env Envelope) {})
	sh := cl.Shard(0)
	payload := []byte{1, 2, 3}
	sh.Engine().At(0, "send", func() {
		sh.Send(src, sink, testLA, 0, 0, 0, payload)
		payload[0] = 99 // mutate after Send: receiver must see the original
	})
	cl.Run()
	if len(seen) != 3 || seen[0] != 1 {
		t.Fatalf("receiver saw %v, want [1 2 3]", seen)
	}
}

func TestClusterStats(t *testing.T) {
	cl := NewCluster(2, 1, testLA)
	lpA := cl.AddLP(0, func(sh *Shard, env Envelope) {})
	lpB := cl.AddLP(1, func(sh *Shard, env Envelope) {})
	sh := cl.Shard(0)
	sh.Engine().At(0, "send", func() {
		sh.Send(lpA, lpB, testLA, 0, 0, 0, nil)
	})
	cl.Run()
	st := cl.Stats()
	if len(st) != 2 {
		t.Fatalf("got %d shard stats", len(st))
	}
	if st[0].Sends != 1 || st[1].Recvs != 1 {
		t.Errorf("sends/recvs = %d/%d, want 1/1", st[0].Sends, st[1].Recvs)
	}
	if st[0].Events == 0 || st[1].Events == 0 {
		t.Errorf("both shards should have executed events: %+v", st)
	}
	if cl.Windows() == 0 {
		t.Error("expected at least one window")
	}
	if cl.Steps() != st[0].Events+st[1].Events {
		t.Errorf("Steps %d != sum of shard events %d", cl.Steps(), st[0].Events+st[1].Events)
	}
}

func TestClusterSeedZeroShardMatchesEngine(t *testing.T) {
	// A 1-shard cluster's engine must be seeded exactly like
	// NewEngine(seed): existing experiments can run under a cluster
	// without perturbing their golden tables.
	cl := NewCluster(1, 42, testLA)
	eng := NewEngine(42)
	for i := 0; i < 8; i++ {
		if a, b := cl.Shard(0).Engine().Rand().Uint64(), eng.Rand().Uint64(); a != b {
			t.Fatalf("draw %d: cluster shard 0 rand %d != engine rand %d", i, a, b)
		}
	}
}

func TestClusterPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("zero shards", func() { NewCluster(0, 1, testLA) })
	expectPanic("zero lookahead", func() { NewCluster(1, 1, 0) })
	cl := NewCluster(2, 1, testLA)
	expectPanic("bad shard", func() { cl.AddLP(2, func(*Shard, Envelope) {}) })
	expectPanic("nil handler", func() { cl.AddLP(0, nil) })
	a := cl.AddLP(0, func(*Shard, Envelope) {})
	b := cl.AddLP(1, func(*Shard, Envelope) {})
	expectPanic("short delay", func() {
		cl.Shard(0).Send(a, b, testLA-1, 0, 0, 0, nil)
	})
	expectPanic("wrong shard", func() {
		cl.Shard(1).Send(a, b, testLA, 0, 0, 0, nil)
	})
	cl.Run()
	expectPanic("run twice", func() { cl.Run() })
	expectPanic("add after run", func() { cl.AddLP(0, func(*Shard, Envelope) {}) })
}

// TestClusterOneWayTrafficRecyclesEvents: shard 0 only sends, shard 1
// only receives. An envelope's recvEvent comes from the sender's free
// list and retires onto the receiver's, so without the hand-back at the
// barrier the sender would allocate one per envelope. Every event ever
// allocated sits on some free list once Run returns: their number must
// stay within a small constant of the peak in flight, not grow with
// the 100 k envelopes sent.
func TestClusterOneWayTrafficRecyclesEvents(t *testing.T) {
	const burst, rounds = 8, 12_500
	cl := NewCluster(2, 1, testLA)
	received := 0
	sink := cl.AddLP(1, func(sh *Shard, env Envelope) { received++ })
	src := cl.AddLP(0, func(sh *Shard, env Envelope) {})
	sh := cl.Shard(0)
	payload := make([]byte, 64)
	round := 0
	var tick func()
	tick = func() {
		for i := 0; i < burst; i++ {
			sh.Send(src, sink, testLA, 0, 0, 0, payload)
		}
		if round++; round < rounds {
			sh.Engine().After(testLA, "tick", tick)
		}
	}
	sh.Engine().At(0, "tick", tick)
	cl.Run()
	if received != burst*rounds {
		t.Fatalf("received %d envelopes, want %d", received, burst*rounds)
	}
	// A burst is delivered one lookahead after it is sent, as the next
	// is: at most two bursts are ever in flight.
	allocated := len(cl.Shard(0).recvPool.free) + len(cl.Shard(1).recvPool.free)
	if allocated > 3*burst {
		t.Fatalf("%d recvEvents allocated for %d envelopes with at most %d in flight",
			allocated, received, 2*burst)
	}
	if len(cl.Shard(1).recvPool.free) > 2*burst {
		t.Fatalf("receiver's free list grew to %d", len(cl.Shard(1).recvPool.free))
	}
}

// pingPong4K bounces one 4 KiB envelope between two LPs for hops hops,
// the way E17's read responses cross the spine; onHop, when non-nil,
// sees the number of hops left at every delivery.
func pingPong4K(shards int, hops uint64, onHop func(left uint64)) {
	cl := NewCluster(shards, 1, testLA)
	payload := make([]byte, 4096)
	bounce := func(sh *Shard, env Envelope) {
		if onHop != nil {
			onHop(env.A)
		}
		if env.A > 0 {
			sh.Send(env.Dst, env.Src, testLA, 0, env.A-1, 0, payload)
		}
	}
	a := cl.AddLP(0, bounce)
	b := cl.AddLP(shards-1, bounce)
	sh := cl.Shard(0)
	sh.Engine().At(0, "boot", func() { sh.Send(a, b, testLA, 0, hops, 0, payload) })
	cl.Run()
}

// BenchmarkClusterSend4K is one hop of a two-LP ping-pong carrying
// 4 KiB: a Send (the envelope's one copy), a barrier hand-over and
// sort, a window, a delivery. Once the events and their payload buffers
// have cycled through the free lists a hop allocates nothing, on one
// shard and across two.
func BenchmarkClusterSend4K(b *testing.B) {
	for _, shards := range []int{1, 2} {
		var m0, m1 runtime.MemStats
		pingPong4K(shards, 2000, func(left uint64) {
			switch left {
			case 1000:
				runtime.ReadMemStats(&m0)
			case 0:
				runtime.ReadMemStats(&m1)
			}
		})
		// The runtime's own stray objects (a GC cycle starting, the
		// MemStats reads) land in the window too, a handful per run; one
		// object per hop would be a thousand. testing.AllocsPerRun draws
		// the same line by integer division.
		if n := m1.Mallocs - m0.Mallocs; n >= 100 {
			b.Fatalf("%d shard(s): 1000 steady-state hops allocated %d objects, want none per hop", shards, n)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	pingPong4K(1, uint64(b.N), nil)
}
