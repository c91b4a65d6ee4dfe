package seg

import (
	"bytes"
	"container/list"
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
	_, s := newStore(t, 1)
	v := NewSyncView(s)
	id := OID(2, 1)
	if _, err := s.Alloc(id, 1<<16, false, HintHot); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5a}, 1000)
	if err := v.WriteAt(id, 123, payload); err != nil {
		t.Fatal(err)
	}
	got, err := v.ReadAt(id, 123, 1000)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("dram read mismatch (%v)", err)
	}
}

func TestReadWriteNVMeUnaligned(t *testing.T) {
	_, s := newStore(t, 2)
	v := NewSyncView(s)
	id := OID(2, 2)
	if _, err := s.Alloc(id, 1<<16, true, HintAuto); err != nil {
		t.Fatal(err)
	}
	// Unaligned write crossing block boundaries exercises RMW.
	payload := bytes.Repeat([]byte{0xA7}, 6000)
	if err := v.WriteAt(id, 3000, payload); err != nil {
		t.Fatal(err)
	}
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

// TestBoundsChecks rejects reads and writes outside an object, DRAM-
// and NVMe-resident alike, and a rejected WriteAt counts no write and
// touches no device.
func TestBoundsChecks(t *testing.T) {
	_, s := newStore(t, 1)
	dram, nv := OID(3, 1), OID(3, 2)
	if _, err := s.Alloc(dram, 100, false, HintHot); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(nv, 2*4096, false, HintCold); err != nil {
		t.Fatal(err)
	}
	v := NewSyncView(s)
	if _, rerr := v.ReadAt(dram, 50, 51); !errors.Is(rerr, ErrBounds) {
		t.Fatalf("read past the end: err = %v", rerr)
	}
	for _, tc := range []struct {
		name string
		id   ObjectID
		off  int64
		n    int
	}{
		{"dram past the end", dram, 99, 2},
		{"dram negative offset", dram, -1, 2},
		{"nvme past the end", nv, 2*4096 - 10, 20},
		{"nvme negative offset", nv, -1, 20},
	} {
		if err := v.WriteAt(tc.id, tc.off, make([]byte, tc.n)); !errors.Is(err, ErrBounds) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, ErrBounds)
		}
		if v.Writes != 0 || v.BytesWritten != 0 || v.DevReads != 0 || v.DevWrites != 0 {
			t.Fatalf("%s: rejected write counted: writes=%d bytes=%d devR=%d devW=%d",
				tc.name, v.Writes, v.BytesWritten, v.DevReads, v.DevWrites)
		}
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
	s := New(eng, scfg, []*nvme.Host{host})
	s.cacheCap = 4
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

// TestLookupMatchesReference drives a store and a reference — a Go map
// of live descriptors and a container/list LRU of the cached ids — with
// one seeded tape of Alloc, Free and Lookup steps over a small id pool,
// the cache cut to four entries so it evicts, plus now and then a
// Checkpoint and a Recover into a fresh store over the same device.
// After every step the cost, the error, the descriptor, CacheHits,
// Lookups and Len must agree. The tape frees cached descriptors and
// allocates their ids again.
func TestLookupMatchesReference(t *testing.T) {
	const capacity = 4
	eng := sim.NewEngine(1)
	ncfg := nvme.DefaultConfig("nvme")
	ncfg.Blocks = 1 << 16
	dev := nvme.New(eng, ncfg)
	scfg := DefaultConfig()
	scfg.DRAMBytes = 1 << 20
	scfg.TableBlocks = 2
	scfg.CheckpointEvery = 0
	open := func() *Store {
		s := New(eng, scfg, []*nvme.Host{nvme.NewHost(dev, nil)})
		s.cacheCap = capacity
		return s
	}
	s := open()
	live := make(map[ObjectID]*Segment)
	lru := list.New() // front = least recently used
	cached := make(map[ObjectID]*list.Element)
	freedCached := make(map[ObjectID]bool)
	var lookups, hits int64
	var evicted, reallocated, reboots int
	r := sim.NewRand(23)
	for step := 0; step < 30_000; step++ {
		id := OID(7, uint64(r.Intn(12)+1))
		var got, want *Segment
		var cost, wantCost sim.Duration
		var err, wantErr error
		switch op := r.Intn(40); {
		case op < 9:
			got, err = s.Alloc(id, int64(r.Intn(3*4096)+1), r.Intn(2) == 0, HintAuto)
			if live[id] != nil {
				got, wantErr = nil, ErrExists
				break
			}
			live[id], want = got, got
			if freedCached[id] {
				delete(freedCached, id)
				reallocated++
			}
		case op < 15:
			err = s.Free(id)
			if live[id] == nil {
				wantErr = ErrNotFound
				break
			}
			delete(live, id)
			if e := cached[id]; e != nil {
				lru.Remove(e)
				delete(cached, id)
				freedCached[id] = true
			}
		case op < 39:
			got, cost, err = s.Lookup(id)
			want = live[id]
			lookups++
			if e := cached[id]; e != nil {
				hits++
				lru.MoveToBack(e)
				break
			}
			wantCost = dramLatency
			if want == nil {
				wantErr = ErrNotFound
				break
			}
			if lru.Len() == capacity {
				delete(cached, lru.Remove(lru.Front()).(ObjectID))
				evicted++
			}
			cached[id] = lru.PushBack(id)
		default:
			if err = s.Checkpoint(); err != nil {
				break
			}
			s = open()
			var n int
			if n, err = s.Recover(); err != nil {
				break
			}
			for k, sg := range live {
				if sg.Loc != LocNVMe {
					delete(live, k)
				} else if live[k], err = s.Stat(k); err != nil {
					break
				}
			}
			if n != len(live) {
				t.Fatalf("step %d: recovered %d segments, want %d", step, n, len(live))
			}
			lru.Init()
			clear(cached)
			clear(freedCached)
			lookups, hits = 0, 0
			reboots++
		}
		if !errors.Is(err, wantErr) {
			t.Fatalf("step %d: %v: err %v, want %v", step, id, err, wantErr)
		}
		if cost != wantCost || got != want {
			t.Fatalf("step %d: %v: cost %v descriptor %p, want %v %p", step, id, cost, got, wantCost, want)
		}
		if s.CacheHits != hits || s.Lookups != lookups || s.Len() != len(live) {
			t.Fatalf("step %d: hits=%d lookups=%d len=%d, want %d %d %d",
				step, s.CacheHits, s.Lookups, s.Len(), hits, lookups, len(live))
		}
	}
	if evicted == 0 || reallocated == 0 || reboots == 0 {
		t.Fatalf("tape lost its purpose: %d evictions, %d reallocations of a freed cached id, %d reboots",
			evicted, reallocated, reboots)
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
	v := NewSyncView(s)

	payload := bytes.Repeat([]byte{0xEE}, 4096)
	for i := 0; i < 10; i++ {
		id := OID(8, uint64(i+1))
		if _, err := s.Alloc(id, 4096, true, HintAuto); err != nil {
			t.Fatal(err)
		}
		if err := v.WriteAt(id, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	// One ephemeral DRAM segment that must NOT survive.
	_, _ = s.Alloc(OID(8, 100), 4096, false, HintHot)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

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
	// A checkpoint leaves no mutation dirty.
	got := 0
	for i := 0; i < 12; i++ {
		_, _ = s.Alloc(OID(9, uint64(i+1)), 512, true, HintAuto)
		if s.dirty == 0 {
			got++
		}
	}
	if got < 2 {
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
		a := newAllocator(1<<16, 0)
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
// contiguity rather than fragmenting permanently. Half the seeds keep
// requests of at most 1 KiB inside 1 KiB pages, as DRAM does with its
// 64 KiB pages: the padding a page edge leaves is a hole like any other.
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
		a := newAllocator(1<<16, int64(r.Intn(2))<<10)
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

// BenchmarkLookupEvict cycles through twice as many live segments as
// the descriptor cache holds, so every lookup misses and evicts the
// least recently used descriptor; a miss, like a hit, allocates
// nothing.
func BenchmarkLookupEvict(b *testing.B) {
	eng := sim.NewEngine(1)
	cfg := nvme.DefaultConfig("nvme")
	cfg.Blocks = 1 << 18
	host := nvme.NewHost(nvme.New(eng, cfg), nil)
	scfg := DefaultConfig()
	scfg.DRAMBytes = 16 << 20
	s := New(eng, scfg, []*nvme.Host{host})
	const live = 2 * cacheEntries
	for i := uint64(1); i <= live; i++ {
		if _, err := s.Alloc(OID(1, i), 512, false, HintHot); err != nil {
			b.Fatal(err)
		}
	}
	next := uint64(0)
	one := func() {
		next = next%live + 1
		if _, c, err := s.Lookup(OID(1, next)); err != nil || c == 0 {
			b.Fatalf("lookup %d: cost %v err %v, want a miss", next, c, err)
		}
	}
	for i := 0; i < live; i++ {
		one()
	}
	if a := testing.AllocsPerRun(200, one); a != 0 {
		b.Fatalf("evicting lookup allocates %v objects/op, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one()
	}
}

// TestBlockShiftMatchesDivision holds the block plane's shifts to the
// division formulas they replaced: spanBlocks and split, at random and
// at every block edge, and New refusing devices whose block size has no
// shift or that disagree on it.
func TestBlockShiftMatchesDivision(t *testing.T) {
	_, s := newStore(t, 1)
	bs := int64(s.blockSize)
	span := func(off, length int64) bool {
		want := int((off+length+bs-1)/bs - off/bs)
		if want < 1 {
			want = 1
		}
		return s.spanBlocks(off, length) == want
	}
	split := func(dev uint8, lba, skip uint32) bool {
		addr := int64(dev%4)*devStride + int64(lba)*bs + int64(skip)%bs
		d, l := s.split(addr)
		return d == int(addr/devStride) && l == (addr%devStride)/bs
	}
	f := func(off, length uint32, edge int8) bool {
		o := int64(off)/bs*bs + int64(edge%2) // a block edge, one either side
		if o < 0 {
			o = 0
		}
		return span(int64(off), int64(length)%(1<<20)) && span(o, int64(length)%(3*bs)) && span(o, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(split, nil); err != nil {
		t.Fatal(err)
	}
	for _, sizes := range [][]int{{3000}, {4097}, {4096, 8192}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted devices with block sizes %v", sizes)
				}
			}()
			var hosts []*nvme.Host
			for _, bs := range sizes {
				ncfg := nvme.DefaultConfig("nvme")
				ncfg.BlockSize = bs
				ncfg.Blocks = 1 << 10
				hosts = append(hosts, nvme.NewHost(nvme.New(sim.NewEngine(1), ncfg), nil))
			}
			New(nil, DefaultConfig(), hosts)
		}()
	}
}
