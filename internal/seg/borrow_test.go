package seg

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"hyperion/internal/nvme"
	"hyperion/internal/sim"
)

// twin is one of two identically built stores driven by the same tape;
// they differ only in the verb they read with.
type twin struct {
	v     *SyncView
	read  func(id ObjectID, off, length int64) ([]byte, error)
	spill *[]byte // lent to Borrow; nil = fresh copies
}

func newTwin(borrow bool, spill *[]byte) *twin {
	eng := sim.NewEngine(1)
	var hosts []*nvme.Host
	for i := 0; i < 2; i++ {
		cfg := nvme.DefaultConfig(fmt.Sprintf("nvme%d", i))
		cfg.Blocks = 1 << 16
		hosts = append(hosts, nvme.NewHost(nvme.New(eng, cfg), nil))
	}
	cfg := DefaultConfig()
	cfg.DRAMBytes = 24 << 20 // 384 pages of 64 KiB
	cfg.CheckpointEvery = 0
	s := New(eng, cfg, hosts)
	s.cacheCap = 4 // small enough that the tape evicts
	tw := &twin{v: NewSyncView(s), spill: spill}
	tw.read = tw.v.ReadAt
	if borrow {
		tw.read = func(id ObjectID, off, length int64) ([]byte, error) {
			return tw.v.Borrow(id, off, length, tw.spill)
		}
	}
	return tw
}

// observables is everything a SyncView user can see of an operation
// besides the bytes: modeled cost, every op counter, and the store's
// translation counters.
func (tw *twin) observables() string {
	v := tw.v
	return fmt.Sprintf("cost=%v reads=%d writes=%d devR=%d devW=%d bytesR=%d bytesW=%d lookups=%d hits=%d",
		v.TakeCost(), v.Reads, v.Writes, v.DevReads, v.DevWrites, v.BytesRead, v.BytesWritten,
		v.s.Lookups, v.s.CacheHits)
}

func sameErr(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// TestBorrowMatchesReadAt drives twin stores with one seeded tape of
// Alloc / WriteAt / read / Free operations. One twin reads with ReadAt,
// the other with Borrow (once letting it allocate the copies it cannot
// avoid, once lending it a spill buffer); after every operation the
// bytes, the error, the modeled cost and every counter must agree, and
// both must agree with a flat in-memory model of each object. The tape
// covers DRAM and NVMe placement, never-written ranges, ranges crossing
// a device block and a DRAM page, empty and out-of-bounds ranges, and
// freed objects.
func TestBorrowMatchesReadAt(t *testing.T) {
	t.Run("fresh copies", func(t *testing.T) { borrowMatchesReadAt(t, nil) })
	t.Run("lent spill", func(t *testing.T) { borrowMatchesReadAt(t, new([]byte)) })
}

func borrowMatchesReadAt(t *testing.T, spill *[]byte) {
	a, b := newTwin(false, nil), newTwin(true, spill)
	rng := sim.NewRand(7)
	sizes := []int64{100, 4096, 5000, 3*4096 + 123, 3 << 20}
	type object struct {
		id    ObjectID
		size  int64
		model []byte
		freed bool
	}
	var objs []*object
	covered := map[string]int{}

	step := func(what string) {
		t.Helper()
		if oa, ob := a.observables(), b.observables(); oa != ob {
			t.Fatalf("%s: observables diverge\n readat: %s\n borrow: %s", what, oa, ob)
		}
	}
	readBoth := func(o *object, off, length int64) {
		t.Helper()
		what := fmt.Sprintf("read %v [%d,+%d) of %d", o.id, off, length, o.size)
		da, ea := a.read(o.id, off, length)
		db, eb := b.read(o.id, off, length)
		if !sameErr(ea, eb) {
			t.Fatalf("%s: errors diverge: readat %v, borrow %v", what, ea, eb)
		}
		step(what)
		switch {
		case o.freed:
			if !errors.Is(eb, ErrNotFound) {
				t.Fatalf("%s: freed object read err = %v", what, eb)
			}
			covered["freed"]++
			return
		case off < 0 || length < 0 || off+length > o.size:
			if !errors.Is(eb, ErrBounds) {
				t.Fatalf("%s: out-of-bounds err = %v", what, eb)
			}
			covered["bounds"]++
			return
		case eb != nil:
			t.Fatalf("%s: %v", what, eb)
		}
		if !bytes.Equal(da, db) {
			t.Fatalf("%s: bytes diverge", what)
		}
		if !bytes.Equal(db, o.model[off:off+length]) {
			t.Fatalf("%s: bytes differ from the model", what)
		}
		if int64(len(db)) != length || int64(cap(db)) < length {
			t.Fatalf("%s: len %d cap %d", what, len(db), cap(db))
		}
	}

	alloc := func(size int64, hint Hint) {
		t.Helper()
		o := &object{id: OID(9, uint64(len(objs)+1)), size: size}
		sa, ea := a.v.Alloc(o.id, size, false, hint)
		sb, eb := b.v.Alloc(o.id, size, false, hint)
		if !sameErr(ea, eb) {
			t.Fatalf("alloc: errors diverge: %v vs %v", ea, eb)
		}
		step("alloc")
		if ea != nil {
			return
		}
		if *sa != *sb {
			t.Fatalf("alloc: segments diverge: %+v vs %+v", *sa, *sb)
		}
		if sa.Loc == LocDRAM && sa.Addr>>dramPageBits != (sa.Addr+size-1)>>dramPageBits {
			covered["dram object spans pages"]++
		}
		// A fresh object holds whatever its range held before (zeros,
		// or a freed object's bytes): learn it through the copying
		// verb on both twins, which keeps their counters in step.
		m, err := a.v.ReadAt(o.id, 0, size)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.v.ReadAt(o.id, 0, size); err != nil {
			t.Fatal(err)
		}
		step("alloc readback")
		o.model = m
		objs = append(objs, o)
	}
	// Two 3 MiB DRAM objects, 48 pages each, whatever the tape draws
	// later: its reads of them cross page edges and are copied.
	alloc(3<<20, HintHot)
	alloc(3<<20, HintHot)

	for op := 0; op < 4000; op++ {
		switch r := rng.Intn(10); {
		case r == 0 && len(objs) < 24:
			hint := HintCold
			if rng.Intn(2) == 0 {
				hint = HintHot
			}
			alloc(sizes[rng.Intn(len(sizes))], hint)
		case r == 1 && len(objs) > 0: // free
			o := objs[rng.Intn(len(objs))]
			ea, eb := a.v.Free(o.id), b.v.Free(o.id)
			if !sameErr(ea, eb) {
				t.Fatalf("free: errors diverge: %v vs %v", ea, eb)
			}
			step("free")
			o.freed = true
		case r <= 4 && len(objs) > 0: // write
			o := objs[rng.Intn(len(objs))]
			off := int64(rng.Intn(int(o.size)))
			n := int64(rng.Intn(9000))
			switch rng.Intn(4) {
			case 0: // aligned whole blocks
				off = off / 4096 * 4096
				n = (n/4096 + 1) * 4096
			case 1:
				n = int64(rng.Intn(300))
			}
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.Intn(256))
			}
			ea, eb := a.v.WriteAt(o.id, off, data), b.v.WriteAt(o.id, off, data)
			if !sameErr(ea, eb) {
				t.Fatalf("write: errors diverge: %v vs %v", ea, eb)
			}
			step(fmt.Sprintf("write %v [%d,+%d) of %d", o.id, off, n, o.size))
			if ea == nil {
				copy(o.model[off:], data)
			}
		case len(objs) > 0: // read
			o := objs[rng.Intn(len(objs))]
			off := int64(rng.Intn(int(o.size)))
			n := int64(rng.Intn(9000))
			switch rng.Intn(6) {
			case 0:
				n = 0
			case 1:
				n = int64(rng.Intn(200)) // mostly inside one block
			case 2:
				off, n = 0, o.size // whole object
			case 3:
				off, n = o.size, 0 // empty range at the very end
			case 4:
				off = -1 - int64(rng.Intn(4))
			}
			if !o.freed && off >= 0 && off+n <= o.size {
				if off/4096 != (off+n-1)/4096 && n > 0 {
					covered["crosses a 4 KiB boundary"]++
				}
				if n == 0 {
					covered["empty"]++
				}
			}
			readBoth(o, off, n)
		}
	}
	for _, want := range []string{"freed", "bounds", "empty", "crosses a 4 KiB boundary", "dram object spans pages"} {
		if covered[want] == 0 {
			t.Errorf("tape never exercised: %s", want)
		}
	}
	if a.v.DevReads == 0 || a.v.Reads == a.v.DevReads {
		t.Errorf("tape did not mix placements: %d reads, %d on NVMe", a.v.Reads, a.v.DevReads)
	}
}

// TestBorrowAliasesTheStore pins the point of the verb: inside one
// block (or one written DRAM page) Borrow returns the stored bytes
// themselves — no allocation, and a later write to that object shows
// through — while a write to another object leaves them alone.
func TestBorrowAliasesTheStore(t *testing.T) {
	for _, hint := range []Hint{HintCold, HintHot} {
		v := newTwin(true, nil).v
		id, other := OID(1, 1), OID(1, 2)
		for _, o := range []ObjectID{id, other} {
			if _, err := v.Alloc(o, 8192, false, hint); err != nil {
				t.Fatal(err)
			}
			if err := v.WriteAt(o, 0, bytes.Repeat([]byte{0x11}, 8192)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := v.Borrow(id, 4096+10, 100, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.WriteAt(other, 0, bytes.Repeat([]byte{0x22}, 8192)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{0x11}, 100)) {
			t.Fatalf("%v: a write to another object changed borrowed bytes", hint)
		}
		if err := v.WriteAt(id, 4096+10, []byte{0x33}); err != nil {
			t.Fatal(err)
		}
		if got[0] != 0x33 {
			t.Fatalf("%v: Borrow did not alias the store", hint)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := v.Borrow(id, 4096+10, 100, nil); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("%v: in-place Borrow allocates %v objects/op", hint, n)
		}
		if hint != HintCold {
			continue
		}
		// A range straddling two device blocks cannot be aliased: it is
		// copied, into the caller's spill when one is lent.
		spill := make([]byte, 0, 100)
		if n := testing.AllocsPerRun(100, func() {
			got, err := v.Borrow(id, 4096-50, 100, &spill)
			if err != nil || len(got) != 100 || &got[0] != &spill[0] {
				t.Fatalf("straddling Borrow = %d bytes, %v; want the lent spill", len(got), err)
			}
		}); n != 0 {
			t.Fatalf("straddling Borrow with a lent spill allocates %v objects/op", n)
		}
	}
}

// TestEditMatchesWriteAt writes the same whole objects through WriteAt
// on one twin and Edit on the other: one NVMe block and a smaller
// object (both edited in place), whole blocks and an object across a
// block edge (both stored back from the view's scratch), a DRAM object
// inside one 64 KiB page (in place) and one across many pages (from the
// scratch), and a freed object. Each object is written twice, fresh and
// over. The stored bytes, the error, the modeled cost, every counter,
// the device blocks and DRAM pages materialized must agree, and edit
// must be handed the bytes the object held.
func TestEditMatchesWriteAt(t *testing.T) {
	a, b := newTwin(false, nil), newTwin(false, nil)
	objs := []struct {
		name string
		id   ObjectID
		size int64
		hint Hint
	}{
		{"one block", OID(9, 1), 4096, HintCold},
		{"in-block unaligned", OID(9, 2), 50, HintCold},
		{"whole blocks", OID(9, 3), 2 * 4096, HintCold},
		{"across a block edge", OID(9, 4), 4096 + 100, HintCold},
		{"dram in a page", OID(9, 5), 5000, HintHot},
		{"dram across pages", OID(9, 6), 3 << 20, HintHot},
	}
	for _, tw := range []*twin{a, b} {
		for _, o := range objs {
			if _, err := tw.v.Alloc(o.id, o.size, false, o.hint); err != nil {
				t.Fatal(err)
			}
		}
	}
	last := objs[len(objs)-1]
	if sg, _ := b.v.s.Stat(last.id); sg.Addr>>dramPageBits == (sg.Addr+last.size-1)>>dramPageBits {
		t.Fatalf("%+v does not span a DRAM page edge", sg)
	}
	materialized := func(tw *twin) string {
		blocks, pages := 0, 0
		for _, h := range tw.v.s.devs {
			blocks += h.Device().StoredBlocks()
		}
		for i := uint64(0); i < uint64(tw.v.s.cfg.DRAMBytes>>dramPageBits); i++ {
			if tw.v.s.dram.pages.Get(i) != nil {
				pages++
			}
		}
		return fmt.Sprintf("%s blocks=%d pages=%d", tw.observables(), blocks, pages)
	}
	rng := sim.NewRand(11)
	for _, o := range objs {
		for pass := 0; pass < 2; pass++ {
			what := fmt.Sprintf("%s, pass %d", o.name, pass)
			data := make([]byte, o.size)
			for i := range data {
				data[i] = byte(rng.Intn(256))
			}
			held, err := a.v.ReadAt(o.id, 0, o.size)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.v.ReadAt(o.id, 0, o.size); err != nil {
				t.Fatal(err)
			}
			ea := a.v.WriteAt(o.id, 0, data)
			eb := b.v.Edit(o.id, func(stored []byte) {
				if !bytes.Equal(stored, held) {
					t.Fatalf("%s: edit was handed bytes that differ from the object", what)
				}
				copy(stored, data)
			})
			if ea != nil || eb != nil {
				t.Fatalf("%s: WriteAt err %v, Edit err %v", what, ea, eb)
			}
			if ma, mb := materialized(a), materialized(b); ma != mb {
				t.Fatalf("%s: diverged\n writeat: %s\n edit:    %s", what, ma, mb)
			}
			sa, _ := a.v.ReadAt(o.id, 0, o.size)
			sb, _ := b.v.ReadAt(o.id, 0, o.size)
			if !bytes.Equal(sa, sb) || !bytes.Equal(sb, data) {
				t.Fatalf("%s: stored bytes diverge", what)
			}
		}
	}
	id := last.id
	if ea, eb := a.v.Free(id), b.v.Free(id); ea != nil || eb != nil {
		t.Fatal(ea, eb)
	}
	ea := a.v.WriteAt(id, 0, []byte{1})
	eb := b.v.Edit(id, func([]byte) { t.Fatal("edit of a freed object ran") })
	if !sameErr(ea, eb) || !errors.Is(eb, ErrNotFound) {
		t.Fatalf("freed: WriteAt err %v, Edit err %v, want %v", ea, eb, ErrNotFound)
	}
	if ma, mb := materialized(a), materialized(b); ma != mb {
		t.Fatalf("freed: diverged\n writeat: %s\n edit:    %s", ma, mb)
	}
	// In place, and across an edge once the scratch is warm, Edit
	// allocates nothing.
	for _, o := range objs[:5] {
		if n := testing.AllocsPerRun(100, func() {
			if err := b.v.Edit(o.id, func(stored []byte) { stored[0]++ }); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("Edit of %s allocates %v objects/op", o.name, n)
		}
	}
}
