package seg

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"hyperion/internal/nvme"
	"hyperion/internal/sim"
)

func newStore(t testing.TB, devN int) (*sim.Engine, *Store) {
	t.Helper()
	eng := sim.NewEngine(1)
	var hosts []*nvme.Host
	for i := 0; i < devN; i++ {
		cfg := nvme.DefaultConfig("nvme")
		cfg.Blocks = 1 << 20 // 4 GiB each keeps tests light
		hosts = append(hosts, nvme.NewHost(nvme.New(eng, cfg), nil))
	}
	cfg := DefaultConfig()
	cfg.DRAMBytes = 64 << 20
	return eng, New(eng, cfg, hosts)
}

func TestObjectIDParseFormat(t *testing.T) {
	id := OID(0xdeadbeef, 42)
	back, err := ParseObjectID(id.String())
	if err != nil || back != id {
		t.Fatalf("roundtrip = %v, %v", back, err)
	}
	if _, err := ParseObjectID("short"); err == nil {
		t.Fatal("accepted short id")
	}
	if !OID(0, 1).Less(OID(0, 2)) || !OID(1, 0).Less(OID(2, 0)) || OID(2, 0).Less(OID(1, 9)) {
		t.Fatal("Less ordering wrong")
	}
}

func TestAllocPlacement(t *testing.T) {
	_, s := newStore(t, 4)
	cases := []struct {
		durable bool
		hint    Hint
		want    Location
	}{
		{false, HintAuto, LocDRAM},
		{true, HintAuto, LocNVMe},
		{false, HintHot, LocDRAM},
		{false, HintCold, LocNVMe},
		{true, HintCold, LocNVMe},
	}
	for i, c := range cases {
		sg, err := s.Alloc(OID(1, uint64(i+1)), 4096, c.durable, c.hint)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if sg.Loc != c.want {
			t.Errorf("case %d: loc = %v, want %v", i, sg.Loc, c.want)
		}
	}
	// Durable + HintHot is contradictory.
	if _, err := s.Alloc(OID(9, 9), 4096, true, HintHot); !errors.Is(err, ErrEphemeral) {
		t.Fatalf("durable-hot err = %v", err)
	}
}

func TestAllocErrors(t *testing.T) {
	_, s := newStore(t, 1)
	if _, err := s.Alloc(ObjectID{}, 10, false, HintAuto); err == nil {
		t.Fatal("accepted zero id")
	}
	if _, err := s.Alloc(OID(1, 1), 0, false, HintAuto); err == nil {
		t.Fatal("accepted zero size")
	}
	if _, err := s.Alloc(OID(1, 1), 10, false, HintAuto); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(OID(1, 1), 10, false, HintAuto); !errors.Is(err, ErrExists) {
		t.Fatalf("dup err = %v", err)
	}
}

func TestDRAMSpillToNVMe(t *testing.T) {
	_, s := newStore(t, 1)
	// Fill DRAM (64 MiB) then allocate one more: HintAuto spills.
	if _, err := s.Alloc(OID(1, 1), 64<<20, false, HintHot); err != nil {
		t.Fatal(err)
	}
	sg, err := s.Alloc(OID(1, 2), 4096, false, HintAuto)
	if err != nil {
		t.Fatal(err)
	}
	if sg.Loc != LocNVMe {
		t.Fatalf("spilled segment loc = %v, want nvme", sg.Loc)
	}
	// HintHot with no DRAM must fail outright.
	if _, err := s.Alloc(OID(1, 3), 4096, false, HintHot); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("hot-no-space err = %v", err)
	}
}

func TestReadWriteDRAM(t *testing.T) {
	eng, s := newStore(t, 1)
	id := OID(2, 1)
	if _, err := s.Alloc(id, 1<<16, false, HintHot); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5a}, 1000)
	var werr error
	s.Write(id, 123, payload, func(err error) { werr = err })
	eng.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	got, err := NewSyncView(s).ReadAt(id, 123, 1000)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("dram read mismatch (%v)", err)
	}
}

func TestReadWriteNVMeUnaligned(t *testing.T) {
	eng, s := newStore(t, 2)
	id := OID(2, 2)
	if _, err := s.Alloc(id, 1<<16, true, HintAuto); err != nil {
		t.Fatal(err)
	}
	// Unaligned write crossing block boundaries exercises RMW.
	payload := bytes.Repeat([]byte{0xA7}, 6000)
	var werr error
	s.Write(id, 3000, payload, func(err error) { werr = err })
	eng.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	v := NewSyncView(s)
	got, err := v.ReadAt(id, 3000, 6000)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("nvme rmw read mismatch (%v)", err)
	}
	// Neighbouring bytes must be untouched (zero).
	edge, err := v.ReadAt(id, 2990, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range edge {
		if b != 0 {
			t.Fatal("rmw clobbered neighbouring bytes")
		}
	}
}

func TestBoundsChecks(t *testing.T) {
	eng, s := newStore(t, 1)
	id := OID(3, 1)
	_, _ = s.Alloc(id, 100, false, HintHot)
	v := NewSyncView(s)
	var werr error
	_, rerr := v.ReadAt(id, 50, 51)
	s.Write(id, 99, []byte{1, 2}, func(err error) { werr = err })
	eng.Run()
	if !errors.Is(rerr, ErrBounds) || !errors.Is(werr, ErrBounds) {
		t.Fatalf("bounds errs = %v, %v", rerr, werr)
	}
	if _, nerr := v.ReadAt(OID(99, 99), 0, 1); !errors.Is(nerr, ErrNotFound) {
		t.Fatalf("missing err = %v", nerr)
	}
}

func TestFreeReusesSpace(t *testing.T) {
	_, s := newStore(t, 1)
	id := OID(4, 1)
	sg, err := s.Alloc(id, 1<<20, false, HintHot)
	if err != nil {
		t.Fatal(err)
	}
	addr := sg.Addr
	if err := s.Free(id); err != nil {
		t.Fatal(err)
	}
	sg2, err := s.Alloc(OID(4, 2), 1<<20, false, HintHot)
	if err != nil {
		t.Fatal(err)
	}
	if sg2.Addr != addr {
		t.Fatalf("freed space not reused: %d vs %d", sg2.Addr, addr)
	}
	if err := s.Free(OID(12, 34)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("free missing err = %v", err)
	}
}

func TestLookupCache(t *testing.T) {
	_, s := newStore(t, 1)
	id := OID(5, 1)
	_, _ = s.Alloc(id, 4096, false, HintHot)
	_, d1, err := s.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	if d1 == 0 {
		t.Fatal("first lookup should miss the descriptor cache")
	}
	_, d2, err := s.Lookup(id)
	if err != nil || d2 != 0 {
		t.Fatalf("second lookup should hit: cost %v err %v", d2, err)
	}
	if s.CacheHits != 1 || s.Lookups != 2 {
		t.Fatalf("hits=%d lookups=%d", s.CacheHits, s.Lookups)
	}
}

func TestLookupCacheEviction(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := nvme.DefaultConfig("nvme")
	cfg.Blocks = 1 << 18
	host := nvme.NewHost(nvme.New(eng, cfg), nil)
	scfg := DefaultConfig()
	scfg.DRAMBytes = 16 << 20
	scfg.CacheEntries = 4
	s := New(eng, scfg, []*nvme.Host{host})
	for i := 0; i < 8; i++ {
		_, _ = s.Alloc(OID(6, uint64(i+1)), 512, false, HintHot)
	}
	for i := 0; i < 8; i++ {
		_, _, _ = s.Lookup(OID(6, uint64(i+1)))
	}
	// All 8 were misses (cache holds 4), so re-looking-up the first
	// must miss again.
	_, d, _ := s.Lookup(OID(6, 1))
	if d == 0 {
		t.Fatal("expected eviction miss")
	}
}

func TestCheckpointRecover(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := nvme.DefaultConfig("nvme")
	cfg.Blocks = 1 << 18
	dev := nvme.New(eng, cfg) // shared device survives the "reboot"
	host := nvme.NewHost(dev, nil)
	scfg := DefaultConfig()
	scfg.DRAMBytes = 16 << 20
	s := New(eng, scfg, []*nvme.Host{host})

	payload := bytes.Repeat([]byte{0xEE}, 4096)
	for i := 0; i < 10; i++ {
		id := OID(8, uint64(i+1))
		if _, err := s.Alloc(id, 4096, true, HintAuto); err != nil {
			t.Fatal(err)
		}
		s.Write(id, 0, payload, nil)
	}
	// One ephemeral DRAM segment that must NOT survive.
	_, _ = s.Alloc(OID(8, 100), 4096, false, HintHot)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	eng.Run() // the queued payload writes land

	// "Reboot": fresh store over the same device.
	s2 := New(eng, scfg, []*nvme.Host{nvme.NewHost(dev, nil)})
	n, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("recovered %d segments, want 10", n)
	}
	if _, err := s2.Stat(OID(8, 100)); !errors.Is(err, ErrNotFound) {
		t.Fatal("ephemeral segment survived reboot")
	}
	got, err := NewSyncView(s2).ReadAt(OID(8, 3), 0, 4096)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("recovered segment payload mismatch (%v)", err)
	}
	// New allocations must not collide with recovered segments.
	sg, err := s2.Alloc(OID(8, 200), 4096, true, HintAuto)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		old, _ := s2.Stat(OID(8, uint64(i+1)))
		if sg.Addr == old.Addr {
			t.Fatal("post-recovery allocation collided with recovered segment")
		}
	}
}

func TestAutoCheckpoint(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := nvme.DefaultConfig("nvme")
	cfg.Blocks = 1 << 18
	host := nvme.NewHost(nvme.New(eng, cfg), nil)
	scfg := DefaultConfig()
	scfg.DRAMBytes = 16 << 20
	scfg.CheckpointEvery = 5
	s := New(eng, scfg, []*nvme.Host{host})
	for i := 0; i < 12; i++ {
		_, _ = s.Alloc(OID(9, uint64(i+1)), 512, true, HintAuto)
	}
	eng.Run()
	if got := s.Counters.Value("checkpoints"); got < 2 {
		t.Fatalf("auto checkpoints = %d, want ≥2", got)
	}
}

func TestMultiDeviceStriping(t *testing.T) {
	_, s := newStore(t, 4)
	devs := map[int]bool{}
	for i := 0; i < 8; i++ {
		sg, err := s.Alloc(OID(10, uint64(i+1)), 1<<20, true, HintAuto)
		if err != nil {
			t.Fatal(err)
		}
		dev, _ := s.split(sg.Addr)
		devs[dev] = true
	}
	if len(devs) != 4 {
		t.Fatalf("segments landed on %d devices, want 4", len(devs))
	}
}

func TestAllocatorProperty(t *testing.T) {
	// Property: after arbitrary alloc/release sequences, free space
	// accounting is exact and allocations never overlap.
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		a := newAllocator(1 << 16)
		type piece struct{ addr, size int64 }
		var live []piece
		total := int64(1 << 16)
		used := int64(0)
		for i := 0; i < 200; i++ {
			if r.Intn(2) == 0 || len(live) == 0 {
				size := int64(r.Intn(1024) + 1)
				addr, err := a.alloc(size)
				if err != nil {
					continue
				}
				for _, p := range live {
					if addr < p.addr+p.size && p.addr < addr+size {
						return false // overlap
					}
				}
				live = append(live, piece{addr, size})
				used += size
			} else {
				i := r.Intn(len(live))
				p := live[i]
				a.release(p.addr, p.size)
				live = append(live[:i], live[i+1:]...)
				used -= p.size
			}
			if a.free() != total-used {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocatorCompactProperty extends TestAllocatorProperty with the
// compaction half of the contract: the free list must stay sorted,
// in-bounds, and fully coalesced after every operation (no two
// adjacent holes survive a release), and releasing everything must
// restore a single maximal hole — i.e. free space compacts back to
// contiguity rather than fragmenting permanently.
func TestAllocatorCompactProperty(t *testing.T) {
	holesInvariant := func(a *allocator) string {
		for i, h := range a.holes {
			if h.size <= 0 {
				return "empty hole on free list"
			}
			if h.addr < 0 || h.addr+h.size > a.total {
				return "hole out of bounds"
			}
			if i > 0 {
				prev := a.holes[i-1]
				if prev.addr+prev.size > h.addr {
					return "holes overlap or unsorted"
				}
				if prev.addr+prev.size == h.addr {
					return "adjacent holes not coalesced"
				}
			}
		}
		return ""
	}
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		a := newAllocator(1 << 16)
		type piece struct{ addr, size int64 }
		var live []piece
		for i := 0; i < 300; i++ {
			if r.Intn(2) == 0 || len(live) == 0 {
				size := int64(r.Intn(2048) + 1)
				addr, err := a.alloc(size)
				if err != nil {
					continue
				}
				live = append(live, piece{addr, size})
			} else {
				j := r.Intn(len(live))
				a.release(live[j].addr, live[j].size)
				live = append(live[:j], live[j+1:]...)
			}
			if msg := holesInvariant(a); msg != "" {
				t.Logf("seed %d step %d: %s", seed, i, msg)
				return false
			}
		}
		// Release the survivors in random order; the space must
		// compact back to one full-extent hole.
		for len(live) > 0 {
			j := r.Intn(len(live))
			a.release(live[j].addr, live[j].size)
			live = append(live[:j], live[j+1:]...)
		}
		if len(a.holes) != 1 || a.holes[0] != (hole{0, a.total}) {
			t.Logf("seed %d: free list did not compact: %+v", seed, a.holes)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookupCached(b *testing.B) {
	eng := sim.NewEngine(1)
	cfg := nvme.DefaultConfig("nvme")
	cfg.Blocks = 1 << 18
	host := nvme.NewHost(nvme.New(eng, cfg), nil)
	scfg := DefaultConfig()
	scfg.DRAMBytes = 16 << 20
	s := New(eng, scfg, []*nvme.Host{host})
	id := OID(1, 1)
	_, _ = s.Alloc(id, 4096, false, HintHot)
	one := func() {
		if _, _, err := s.Lookup(id); err != nil {
			b.Fatal(err)
		}
	}
	one()
	if a := testing.AllocsPerRun(200, one); a != 0 {
		b.Fatalf("cached lookup allocates %v objects/op, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one()
	}
}

func TestAsyncStress(t *testing.T) {
	// Many outstanding queued writes interleaved with synchronous reads
	// across DRAM and NVMe segments must all complete and leave every
	// object readable.
	eng, s := newStore(t, 4)
	v := NewSyncView(s)
	const objects = 32
	want := make(map[ObjectID]byte)
	for i := 0; i < objects; i++ {
		id := OID(77, uint64(i+1))
		durable := i%2 == 0
		hint := HintAuto
		if i%3 == 0 {
			hint = HintCold
		}
		if _, err := s.Alloc(id, 16<<10, durable, hint); err != nil {
			t.Fatal(err)
		}
		want[id] = 0
	}
	r := sim.NewRand(55)
	pending := 0
	var errs []error
	for round := 0; round < 200; round++ {
		i := r.Intn(objects)
		id := OID(77, uint64(i+1))
		switch r.Intn(4) {
		case 0, 1, 2: // write a new version tag across the object edges
			tag := byte(r.Intn(255) + 1)
			buf := bytes.Repeat([]byte{tag}, 100)
			off := int64(r.Intn(16<<10 - 100))
			pending++
			want[id] = tag
			s.Write(id, off, buf, func(err error) {
				pending--
				if err != nil {
					errs = append(errs, err)
				}
			})
		case 3: // read anywhere (just must not error)
			if _, err := v.ReadAt(id, int64(r.Intn(8<<10)), 64); err != nil {
				errs = append(errs, err)
			}
		}
		if round%37 == 0 {
			eng.Run()
		}
	}
	eng.Run()
	if pending != 0 {
		t.Fatalf("%d operations never completed", pending)
	}
	for _, err := range errs {
		t.Fatalf("stress op failed: %v", err)
	}
	// Every object is still fully readable end to end.
	for i := 0; i < objects; i++ {
		id := OID(77, uint64(i+1))
		if data, err := v.ReadAt(id, 0, 16<<10); err != nil || len(data) != 16<<10 {
			t.Fatalf("final read %v: %v (%d bytes)", id, err, len(data))
		}
	}
}
