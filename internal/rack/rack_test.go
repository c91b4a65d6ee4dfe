package rack

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"hyperion/internal/sim"
)

// smallConfig is a fast rack for unit tests: 4 boxes, enough traffic
// to exercise every op kind and the replication fan-out.
func smallConfig(shards int) Config {
	cfg := DefaultConfig()
	cfg.Boxes = 4
	cfg.Shards = shards
	cfg.ClientsPerBox = 200
	cfg.RatePerClient = 500
	cfg.Horizon = 500 * sim.Microsecond
	cfg.KeysPerBox = 64
	return cfg
}

// summarize renders everything the bench table would: if two layouts
// agree on this string, they agree on the experiment output.
func summarize(t *Totals, cl *sim.Cluster) string {
	return fmt.Sprintf("issued=%d ok=%d errs=%d r=%d g=%d p=%d bytes=%d lat[%v %v %v] steps=%d windows=%d now=%v",
		t.Issued, t.OK, t.Errs, t.Reads, t.Gets, t.Puts, t.BytesMoved,
		t.LatAll.Percentile(50), t.LatAll.Percentile(99), t.LatAll.Max(),
		cl.Steps(), cl.Windows(), cl.Now())
}

func runRack(seed uint64, shards int) string {
	r := New(smallConfig(shards), seed, nil)
	r.Run()
	return summarize(r.Totals(), r.Cluster())
}

func TestRackShardCountInvariance(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		want := runRack(seed, 1)
		for _, shards := range []int{2, 4} {
			if got := runRack(seed, shards); got != want {
				t.Errorf("seed %d: %d-shard run differs\n1 shard: %s\n%d shards: %s",
					seed, shards, want, shards, got)
			}
		}
	}
}

func TestRackCompletes(t *testing.T) {
	r := New(smallConfig(2), 1, nil)
	r.Run()
	tot := r.Totals()
	if tot.Issued == 0 {
		t.Fatal("no ops issued")
	}
	if tot.OK+tot.Errs != tot.Issued {
		t.Errorf("issued %d but completed %d ok + %d errs: requests leaked",
			tot.Issued, tot.OK, tot.Errs)
	}
	if tot.Errs != 0 {
		t.Errorf("fault-free run produced %d errors", tot.Errs)
	}
	if tot.Reads == 0 || tot.Gets == 0 || tot.Puts == 0 {
		t.Errorf("op mix not exercised: reads=%d gets=%d puts=%d", tot.Reads, tot.Gets, tot.Puts)
	}
	if tot.LatAll.Count() != int(tot.OK) {
		t.Errorf("latency samples %d != ok ops %d", tot.LatAll.Count(), tot.OK)
	}
	// Every shard should have done work, and envelope flow must balance.
	var sends, recvs uint64
	for _, st := range r.Cluster().Stats() {
		if st.Events == 0 {
			t.Errorf("shard %d executed no events", st.Shard)
		}
		sends += st.Sends
		recvs += st.Recvs
	}
	if sends != recvs {
		t.Errorf("envelopes sent %d != delivered %d", sends, recvs)
	}
}

func TestRackFaultPlane(t *testing.T) {
	cfg := smallConfig(2)
	cfg.FaultRate = 0.2
	r := New(cfg, 1, nil)
	r.Run()
	tot := r.Totals()
	if tot.Errs == 0 {
		t.Fatal("20% drop rate produced no client errors")
	}
	if tot.OK+tot.Errs != tot.Issued {
		t.Errorf("issued %d, completed %d+%d: faults must still answer the client",
			tot.Issued, tot.OK, tot.Errs)
	}
	// Faulty runs stay shard-count invariant too: per-box plans are
	// keyed on (seed, layer, box index), not on layout.
	a := New(cfg, 1, nil)
	a.Run()
	cfg4 := cfg
	cfg4.Shards = 4
	b := New(cfg4, 1, nil)
	b.Run()
	if sa, sb := summarize(a.Totals(), a.Cluster()), summarize(b.Totals(), b.Cluster()); sa != sb {
		t.Errorf("faulty run not invariant:\n1 shard: %s\n4 shards: %s", sa, sb)
	}
}

func TestRackIndexedPlansDiffer(t *testing.T) {
	// Regression for the NewPlanIndexed audit: two boxes must not see
	// identical fault streams (NewPlan keyed on the layer name alone
	// would correlate them).
	cfg := smallConfig(1)
	cfg.Boxes = 2
	cfg.Replicas = 2
	cfg.FaultRate = 0.5
	r := New(cfg, 3, nil)
	r.Run()
	if r.boxes[0].dropped == r.boxes[1].dropped {
		// Counts colliding once is possible; identical streams would
		// also collide on every op count. Check the stronger signal.
		if r.boxes[0].reads == r.boxes[1].reads && r.boxes[0].gets == r.boxes[1].gets {
			t.Error("boxes look identically seeded; expected independent fault streams")
		}
	}
}

// TestRackAllocBudget pins the block plane's allocation win where
// `go test ./...` sees it: a fixed-seed two-box rack at E17's load may
// spend at most this many heap objects and bytes per issued op while
// it runs. Measured 1.11 objects and 434 B per op; the bounds sit
// ~10 % above. What is left is one method value per fresh readOp and
// per fresh nvme cmdCtx (a third each), and per fresh kvOp (an eighth).
func TestRackAllocBudget(t *testing.T) {
	const maxObjects, maxBytes = 1.22, 480
	cfg := DefaultConfig()
	cfg.Boxes = 2
	cfg.Replicas = 2
	cfg.RatePerClient = 300
	r := New(cfg, 1, nil)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.Run()
	runtime.ReadMemStats(&m1)
	ops := float64(r.Totals().Issued)
	if ops < 4000 {
		t.Fatalf("only %v ops issued: too few to average over", ops)
	}
	objects := float64(m1.Mallocs-m0.Mallocs) / ops
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / ops
	t.Logf("%.0f ops: %.2f objects/op, %.0f B/op", ops, objects, bytes)
	if objects > maxObjects || bytes > maxBytes {
		t.Errorf("run allocates %.2f objects and %.0f B per op, budget %.2f and %d",
			objects, bytes, maxObjects, maxBytes)
	}
}

// blockPattern is the content seeded at (box, lba): every byte depends
// on both and on its position, so a payload that is stale, recycled
// under its reader or poisoned cannot pass for the right block.
func blockPattern(box int, lba int64) []byte {
	b := make([]byte, 4096)
	for i := range b {
		b[i] = byte(lba>>(8*(uint(i)%3))) ^ byte(box*31+i)
	}
	return b
}

// TestRackReadPayloadsSurviveTheBlockPlane follows remote block reads
// end to end — device store, borrowed completion buffer, the box's wire
// buffer, the envelope's event, the delivered envelope — and checks every
// payload byte at the far end. E17's table never looks at payload
// bytes, so this is where a consumer that kept a borrowed slice (which
// race builds poison with 0xDB the moment the handler returns) or a
// buffer recycled under a pending reply would show. The reader is an
// extra LP on shard 0 issuing reads of seeded and never-written blocks
// into every box while the regular client groups load the same devices.
func TestRackReadPayloadsSurviveTheBlockPlane(t *testing.T) {
	const seeded, reads = 64, 1500
	for _, shards := range []int{1, 4} {
		cfg := smallConfig(shards)
		r := New(cfg, 5, nil)
		for _, b := range r.boxes {
			for lba := int64(0); lba < seeded; lba++ {
				b.host.Device().WriteSync(lba, blockPattern(b.idx, lba))
			}
		}
		type want struct {
			box int
			lba int64
		}
		asked := make([]want, reads)
		got := 0
		sh := r.cl.Shard(0)
		probe := r.cl.AddLP(0, func(_ *sim.Shard, env sim.Envelope) {
			if env.Kind != respRead {
				t.Errorf("%d shards: probe got envelope kind %d for req %d", shards, env.Kind, env.A)
				return
			}
			w := asked[env.A]
			expect := make([]byte, 4096) // never-written blocks read as zeros
			if w.lba < seeded {
				expect = blockPattern(w.box, w.lba)
			}
			if !bytes.Equal(env.Data[hdrBytes:], expect) {
				t.Errorf("%d shards: req %d (box %d lba %d): payload is not the stored block (first byte %#02x)",
					shards, env.A, w.box, w.lba, env.Data[hdrBytes])
			}
			got++
		})
		rng := sim.NewRand(11)
		for i := range asked {
			w := want{box: rng.Intn(cfg.Boxes), lba: int64(rng.Intn(2 * seeded))}
			asked[i] = w
			id := uint64(i)
			at := sim.Time(0).Add(sim.Duration(i) * cfg.Horizon / reads)
			sh.Engine().At(at, "probe.read", func() {
				sh.Send(probe, r.boxes[w.box].lp, r.cl.Lookahead(), opNVMeRead, id, uint64(w.lba), nil)
			})
		}
		r.Run()
		if got != reads {
			t.Errorf("%d shards: %d of %d probe reads answered", shards, got, reads)
		}
		if tot := r.Totals(); tot.Errs != 0 || tot.OK != tot.Issued {
			t.Errorf("%d shards: client groups saw %d errors, %d of %d ok", shards, tot.Errs, tot.OK, tot.Issued)
		}
	}
}
