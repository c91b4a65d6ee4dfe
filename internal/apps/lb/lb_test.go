package lb

import (
	"testing"

	"hyperion/internal/nvme"
	"hyperion/internal/seg"
	"hyperion/internal/sim"
	"hyperion/internal/trace"
)

func newBalancer(t testing.TB, hotCap int) (*seg.SyncView, *Balancer) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := nvme.DefaultConfig("nvme")
	cfg.Blocks = 1 << 20
	host := nvme.NewHost(nvme.New(eng, cfg), nil)
	scfg := seg.DefaultConfig()
	scfg.DRAMBytes = 64 << 20
	scfg.CheckpointEvery = 0
	v := seg.NewSyncView(seg.New(eng, scfg, []*nvme.Host{host}))
	b, err := New(v, seg.OID(0x1b, 0), []Backend{{Addr: 1}, {Addr: 2}, {Addr: 3}}, hotCap)
	if err != nil {
		t.Fatal(err)
	}
	return v, b
}

func syn(src uint32, port uint16) trace.Packet {
	return trace.Packet{SrcIP: src, DstIP: 9, SrcPort: port, DstPort: 443, Proto: 6, Flags: 0x02, Bytes: 60}
}

func data(src uint32, port uint16) trace.Packet {
	p := syn(src, port)
	p.Flags = 0x10
	return p
}

func fin(src uint32, port uint16) trace.Packet {
	p := syn(src, port)
	p.Flags = 0x01
	return p
}

// TestFlowTableMatchesMap drives the hot table and a map through one
// seeded tape of puts, overwrites and deletes over a key set small
// enough that probe runs collide and wrap, checking every key after
// each op. Churn at a steady occupancy must not grow the table.
func TestFlowTableMatchesMap(t *testing.T) {
	rng := sim.NewRand(9)
	keys := make([]uint64, 48)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	var ft flowTable
	ft.init(4)
	ref := map[uint64]uint32{}
	for op := 0; op < 20000; op++ {
		k := keys[rng.Intn(len(keys))]
		if op < 10000 {
			k = keys[rng.Intn(7)] // at most 7 live: the 16 slots suffice
		}
		if rng.Intn(2) == 0 {
			v := uint32(rng.Intn(1 << 20))
			ft.put(k, v)
			ref[k] = v
		} else {
			ft.del(k)
			delete(ref, k)
		}
		if op == 9999 && len(ft.keys) != 16 {
			t.Fatalf("churn over 7 keys grew the table to %d slots", len(ft.keys))
		}
		for _, k := range keys {
			got, ok := ft.get(k)
			want, wok := ref[k]
			if ok != wok || got != want {
				t.Fatalf("op %d: get(%#x) = %d,%v, want %d,%v", op, k, got, ok, want, wok)
			}
		}
		if ft.n != len(ref) {
			t.Fatalf("op %d: %d live entries, want %d", op, ft.n, len(ref))
		}
	}
}

func TestConnectionAffinity(t *testing.T) {
	_, b := newBalancer(t, 1024)
	first, err := b.Steer(syn(100, 5000))
	if err != nil || first == 0 {
		t.Fatalf("syn steer = %d,%v", first, err)
	}
	for i := 0; i < 20; i++ {
		got, err := b.Steer(data(100, 5000))
		if err != nil || got != first {
			t.Fatalf("packet %d steered to %d, want %d (%v)", i, got, first, err)
		}
	}
	if b.Hits != 20 {
		t.Fatalf("hits = %d", b.Hits)
	}
}

func TestUnknownFlowMisses(t *testing.T) {
	_, b := newBalancer(t, 16)
	got, err := b.Steer(data(1, 1))
	if err != nil || got != 0 {
		t.Fatalf("orphan data steered to %d (%v)", got, err)
	}
	if b.Misses != 1 {
		t.Fatalf("misses = %d", b.Misses)
	}
}

func TestFinRemovesFlow(t *testing.T) {
	_, b := newBalancer(t, 16)
	_, _ = b.Steer(syn(7, 7))
	if _, err := b.Steer(fin(7, 7)); err != nil {
		t.Fatal(err)
	}
	if b.Closed != 1 {
		t.Fatalf("closed = %d", b.Closed)
	}
	if got, _ := b.Steer(data(7, 7)); got != 0 {
		t.Fatal("closed flow still steered")
	}
}

func TestSpillBeyondDRAMAndRecall(t *testing.T) {
	_, b := newBalancer(t, 8)
	// Open 50 connections: only 8 fit in DRAM, the rest spill to NVMe.
	steered := map[int]uint32{}
	for i := 0; i < 50; i++ {
		dst, err := b.Steer(syn(uint32(i), uint16(i)))
		if err != nil {
			t.Fatal(err)
		}
		steered[i] = dst
	}
	if b.Spills == 0 {
		t.Fatal("no spills at 50 conns with 8-entry table")
	}
	if b.HotLen() > 8 {
		t.Fatalf("hot table overflowed: %d", b.HotLen())
	}
	// Every connection must still steer to its original backend,
	// whether its state is hot or spilled.
	for i := 0; i < 50; i++ {
		dst, err := b.Steer(data(uint32(i), uint16(i)))
		if err != nil {
			t.Fatal(err)
		}
		if dst != steered[i] {
			t.Fatalf("conn %d re-steered %d → %d", i, steered[i], dst)
		}
	}
	if b.SpillHits == 0 {
		t.Fatal("no spill-store hits")
	}
}

func TestSpillCostsMoreThanHot(t *testing.T) {
	v, b := newBalancer(t, 4)
	for i := 0; i < 20; i++ {
		_, _ = b.Steer(syn(uint32(i), 1))
	}
	v.TakeCost()
	// Conn 19 was just inserted: hot.
	if _, err := b.Steer(data(19, 1)); err != nil {
		t.Fatal(err)
	}
	hotCost := v.TakeCost()
	// Conn 0 spilled long ago: cold.
	if _, err := b.Steer(data(0, 1)); err != nil {
		t.Fatal(err)
	}
	coldCost := v.TakeCost()
	if coldCost <= hotCost {
		t.Fatalf("cold %v not above hot %v", coldCost, hotCost)
	}
	if coldCost < 50*sim.Microsecond {
		t.Fatalf("cold lookup %v implausibly cheap for NVMe", coldCost)
	}
}

func TestRealisticTrace(t *testing.T) {
	_, b := newBalancer(t, 256)
	g := trace.NewConnGen(3)
	for i := 0; i < 20000; i++ {
		if _, err := b.Steer(g.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if b.NewConns == 0 || b.Hits == 0 {
		t.Fatalf("conns=%d hits=%d", b.NewConns, b.Hits)
	}
	// Steering decisions never error even as the table churns.
	if b.Misses > b.Hits {
		t.Fatalf("misses %d exceed hits %d: state loss", b.Misses, b.Hits)
	}
}

func BenchmarkSteer(b *testing.B) {
	_, bal := newBalancer(b, 1024)
	g := trace.NewConnGen(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bal.Steer(g.Next()); err != nil {
			b.Fatal(err)
		}
	}
}
