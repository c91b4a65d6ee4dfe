package seg

import (
	"bytes"
	"testing"
	"testing/quick"

	"hyperion/internal/sim"
)

// TestDRAMPlacementProperty drives a 16-page DRAM through random tapes
// of Alloc and Free, objects from 1 B to three pages. After every Alloc:
//   - an object of at most one page sits inside one page, and Borrow
//     lends it in place once written;
//   - an object of at most one page is placed whenever some page is
//     wholly free;
//   - a larger object round-trips through the copy path: what WriteAt
//     stored, ReadAt and a Borrow across a page edge return.
func TestDRAMPlacementProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		_, s := newStore(t, 1)
		s.dramAl = newAllocator(16*dramPageSize, dramPageSize)
		v := NewSyncView(s)
		wholePageFree := func() bool {
			for _, h := range s.dramAl.holes {
				if start := (h.addr + dramPageMask) &^ dramPageMask; start+dramPageSize <= h.addr+h.size {
					return true
				}
			}
			return false
		}
		var live []ObjectID
		for step := 0; step < 200; step++ {
			if r.Intn(3) == 0 && len(live) > 0 {
				i := r.Intn(len(live))
				if err := v.Free(live[i]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
				continue
			}
			size := 1 + int64(r.Intn(int(dramPageSize)))
			switch r.Intn(4) {
			case 0:
				size = dramPageSize
			case 1:
				size = dramPageSize + 1 + int64(r.Intn(int(2*dramPageSize)))
			}
			mustFit := size <= dramPageSize && wholePageFree()
			id := OID(7, uint64(step+1))
			sg, err := v.Alloc(id, size, false, HintHot)
			if err != nil {
				if mustFit {
					t.Logf("seed %d step %d: %d B not placed with a whole page free: %+v", seed, step, size, s.dramAl.holes)
					return false
				}
				continue
			}
			live = append(live, id)
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i) ^ byte(i>>8) ^ byte(step)
			}
			if err := v.WriteAt(id, 0, data); err != nil {
				t.Fatal(err)
			}
			first, last := sg.Addr>>dramPageBits, (sg.Addr+size-1)>>dramPageBits
			if size <= dramPageSize {
				if first != last {
					t.Logf("seed %d step %d: %d B at %#x straddles a page", seed, step, size, sg.Addr)
					return false
				}
				got, err := v.Borrow(id, 0, size, nil)
				if err != nil || &got[0] != &s.dram.page(sg.Addr)[sg.Addr&dramPageMask] || !bytes.Equal(got, data) {
					t.Logf("seed %d step %d: %d B in one page not lent in place (%v)", seed, step, size, err)
					return false
				}
				continue
			}
			edge := (first+1)<<dramPageBits - sg.Addr
			lo, hi := max(edge-100, 0), min(edge+100, size)
			got, err := v.ReadAt(id, 0, size)
			across, berr := v.Borrow(id, lo, hi-lo, nil)
			if err != nil || berr != nil || !bytes.Equal(got, data) || !bytes.Equal(across, data[lo:hi]) {
				t.Logf("seed %d step %d: %d B across pages did not round-trip (%v, %v)", seed, step, size, err, berr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
