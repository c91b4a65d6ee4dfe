package sim

import (
	"bytes"
	"cmp"
	"fmt"
	"runtime"
	"slices"
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

	// SendBuf refills a recycled event in place: one last used for
	// 4 KiB must deliver exactly the 3 bytes written, nothing after.
	cl = NewCluster(1, 1, testLA)
	var got [][]byte
	var caps []int
	sink = cl.AddLP(0, func(sh *Shard, env Envelope) {
		got = append(got, append([]byte(nil), env.Data...))
		caps = append(caps, cap(env.Data))
	})
	src = cl.AddLP(0, func(sh *Shard, env Envelope) {})
	sh = cl.Shard(0)
	sh.Engine().At(0, "big", func() {
		sh.Send(src, sink, testLA, 0, 0, 0, bytes.Repeat([]byte{0xAA}, 4096))
	})
	sh.Engine().At(Time(0).Add(2*testLA), "small", func() {
		copy(sh.SendBuf(src, sink, testLA, 0, 1, 0, 3), "abc")
	})
	cl.Run()
	if len(got) != 2 || len(got[0]) != 4096 {
		t.Fatalf("receiver saw %d envelopes, want a 4 KiB one and a 3-byte one", len(got))
	}
	if string(got[1]) != "abc" {
		t.Fatalf("in-place envelope delivered %q, want \"abc\"", got[1])
	}
	if caps[1] < 4096 {
		t.Fatalf("in-place envelope has capacity %d: it did not reuse the 4 KiB event", caps[1])
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

// TestOneShardClusterMatchesEngine is the barrier kernel's no-physics
// check on engine-level work: a seeded, self-rescheduling workload —
// delays drawn from the engine's own Rand, shorter and longer than the
// lookahead, with same-time ties and cancellations — must fire in the
// same order and take the same number of steps under Engine.Run as
// under a 1-shard Cluster.Run. The cluster clock rests at the last
// window's deadline: at or after the engine's final event, and at most
// one lookahead past it.
func TestOneShardClusterMatchesEngine(t *testing.T) {
	workload := func(eng *Engine) *[]string {
		log := &[]string{}
		const actors, budget = 6, 400
		fired := 0
		var fire func(id int) func()
		fire = func(id int) func() {
			return func() {
				*log = append(*log, fmt.Sprintf("%d@%d", id, eng.Now()))
				if fired++; fired >= budget {
					return
				}
				r := eng.Rand()
				d := Duration(r.Intn(4)) * testLA / 2
				next := eng.After(d, "actor", fire(id))
				if r.Intn(8) == 0 {
					eng.Cancel(next)
					eng.After(d+Nanosecond, "actor", fire(id))
				}
			}
		}
		for id := 0; id < actors; id++ {
			eng.At(Time(id%3)*Time(Microsecond), "actor", fire(id))
		}
		return log
	}
	for _, seed := range []uint64{1, 2, 3, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			eng := NewEngine(seed)
			want := workload(eng)
			eng.Run()
			cl := NewCluster(1, seed, testLA)
			got := workload(cl.Shard(0).Engine())
			cl.Run()
			for i := range min(len(*got), len(*want)) {
				if (*got)[i] != (*want)[i] {
					t.Fatalf("seed %d: firing %d is %s under Cluster.Run, %s under Engine.Run", seed, i, (*got)[i], (*want)[i])
				}
			}
			if len(*got) != len(*want) {
				t.Fatalf("seed %d: %d firings under Cluster.Run, %d under Engine.Run", seed, len(*got), len(*want))
			}
			if cl.Steps() != eng.Steps() {
				t.Errorf("seed %d: cluster ran %d steps, engine %d", seed, cl.Steps(), eng.Steps())
			}
			if d := cl.Now().Sub(eng.Now()); d < 0 || d > testLA {
				t.Errorf("seed %d: cluster clock %v, engine %v: outside one lookahead", seed, cl.Now(), eng.Now())
			}
		})
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

// TestClusterLateEnvelopesKeepOrder: a far-future envelope sent in
// one window is still queued on the sink's inbox when nearer ones sent
// in later windows arrive. Three senders each kick themselves one
// lookahead at a time. On every kick the first two send the sink three
// near envelopes and one due ten lookaheads out. The third sends 32
// near ones in descending delivery time, a reversed batch past the
// insertion sort's budget, two at each instant. The instants repeat
// across senders, so ties break by sender and, within a sender, by send
// order. The sink must see every envelope in (at, src, send order), the
// sorted oracle, at every shard count, and no envelope may leave the
// inbox lanes for the heap.
func TestClusterLateEnvelopesKeepOrder(t *testing.T) {
	const rounds = 40
	type sent struct {
		at  Time
		src LP
		seq uint64
	}
	for _, shards := range []int{1, 2, 4} {
		cl := NewCluster(shards, 1, testLA)
		var got []uint64
		sink := cl.AddLP(shards-1, func(sh *Shard, env Envelope) { got = append(got, env.A) })
		logs := make([][]sent, 3)
		senders := make([]LP, 3)
		for i := range senders {
			i := i
			send := func(sh *Shard, delay Duration) {
				id := uint64(i)<<32 | uint64(len(logs[i]))
				logs[i] = append(logs[i], sent{sh.Engine().Now().Add(delay), senders[i], id})
				sh.Send(senders[i], sink, delay, 0, id, 0, nil)
			}
			senders[i] = cl.AddLP(i%shards, func(sh *Shard, env Envelope) {
				if i == 2 {
					for j := Duration(32); j >= 1; j-- {
						send(sh, testLA+(j+1)/2*Nanosecond)
					}
				} else {
					for j := Duration(1); j <= 3; j++ {
						send(sh, testLA+j*Nanosecond)
					}
					send(sh, 10*testLA)
				}
				if env.A < rounds {
					sh.Send(env.Dst, env.Dst, testLA, 0, env.A+1, 0, nil)
				}
			})
			cl.Shard(i%shards).Send(senders[i], senders[i], testLA, 0, 0, 0, nil)
		}
		cl.Run()
		want := slices.Concat(logs...)
		slices.SortFunc(want, func(a, b sent) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			if c := cmp.Compare(a.src, b.src); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
		if len(got) != len(want) {
			t.Fatalf("shards=%d: sink saw %d envelopes, %d sent", shards, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k].seq {
				t.Fatalf("shards=%d: delivery %d is %#x, want %#x", shards, k, got[k], want[k].seq)
			}
		}
		// No engine event was ever scheduled: a pool slot would mean an
		// envelope fell back to the heap.
		for i := 0; i < shards; i++ {
			if n := len(cl.Shard(i).eng.pool.slots); n != 0 {
				t.Errorf("shards=%d: shard %d scheduled %d heap events", shards, i, n)
			}
		}
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

// BenchmarkClusterExchange times the barrier alone: exchange ordering
// one batch of 4096 envelopes into the sink's inbox lanes. The sends
// before it and the deliveries after it run with the timer stopped.
//   - nearly-ordered: 64 senders, as in E17's 32-box row, take turns
//     sending, each behind its own link backlog, so an envelope lands a
//     few places from where it sorts; at 4 shards the batch is four
//     such runs to merge.
//   - reversed: one sender's envelopes leave in descending delivery
//     time, past the insertion sort's budget.
func BenchmarkClusterExchange(b *testing.B) {
	const batch, senders = 4096, 64
	rng := NewRand(1)
	backlog := make([]Duration, senders)
	for i := range backlog {
		backlog[i] = Duration(rng.Intn(40)) * Nanosecond
	}
	near := func(i int) Duration { return Duration(10*i)*Nanosecond + backlog[i%senders] }
	for _, bc := range []struct {
		name    string
		shards  int
		senders int
		delay   func(i int) Duration // of the batch's i-th send
	}{
		{"nearly-ordered/shards=1", 1, senders, near},
		{"nearly-ordered/shards=4", 4, senders, near},
		{"reversed/shards=1", 1, 1, func(i int) Duration {
			return Duration(batch-i) * Nanosecond
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cl := NewCluster(bc.shards, 1, testLA)
			sink := cl.AddLP(0, func(sh *Shard, env Envelope) {})
			lps := make([]LP, bc.senders)
			for i := range lps {
				lps[i] = cl.AddLP(i%bc.shards, func(sh *Shard, env Envelope) {})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				for i := 0; i < batch; i++ {
					s := i % bc.senders
					cl.Shard(s%bc.shards).Send(lps[s], sink, testLA+bc.delay(i), 0, 0, 0, nil)
				}
				b.StartTimer()
				cl.exchange()
				b.StopTimer()
				// Deliver the batch and keep every shard's clock in step.
				end := cl.Now().Add(testLA + batch*10*Nanosecond + Microsecond)
				for _, sh := range cl.shards {
					sh.eng.RunUntil(end)
				}
				b.StartTimer()
			}
		})
	}
}
