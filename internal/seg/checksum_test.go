package seg

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"hyperion/internal/fault"
	"hyperion/internal/nvme"
	"hyperion/internal/sim"
)

// newChecksumStore builds a store with ChecksumReads armed over one
// NVMe device whose fault plan corrupts read payloads at the given
// rate, returning the device so tests can tune the plan further.
func newChecksumStore(t testing.TB, corruptRate float64) (*sim.Engine, *Store, *nvme.Device) {
	t.Helper()
	eng := sim.NewEngine(1)
	ncfg := nvme.DefaultConfig("nvme")
	ncfg.Blocks = 1 << 16
	dev := nvme.New(eng, ncfg)
	dev.SetFaultPlan(fault.NewPlan(1, "nvme").Set(fault.Corrupt, corruptRate))
	cfg := DefaultConfig()
	cfg.DRAMBytes = 1 << 20
	cfg.ChecksumReads = true
	return eng, New(eng, cfg, []*nvme.Host{nvme.NewHost(dev, nil)}), dev
}

// TestChecksumRereadRecovers: with transient read-path corruption, a
// damaged payload must NEVER reach the caller as a success — reads
// either return the written bytes or fail with StatusChecksum after
// exhausting rereads. The counters then prove recovery actually
// happened: every exhausted read burns exactly crcMaxRereads rereads,
// so a reread total above crc_failures*crcMaxRereads means at least
// one reread sequence found a clean copy mid-way.
func TestChecksumRereadRecovers(t *testing.T) {
	eng, s, _ := newChecksumStore(t, 0.15)
	id := OID(1, 1)
	if _, err := s.Alloc(id, 4096, true, HintCold); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x5a}, 4096)
	s.Write(id, 0, want, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
	})
	eng.Run()
	const reads = 40
	done, ok := 0, 0
	for i := 0; i < reads; i++ {
		s.Read(id, 0, 4096, func(data []byte, err error) {
			done++
			if err != nil {
				if !strings.Contains(err.Error(), "0xfffe") {
					t.Errorf("read %d: unexpected error %v", done, err)
				}
				return
			}
			ok++
			if !bytes.Equal(data, want) {
				t.Errorf("read %d: corrupted payload reached caller", done)
			}
		})
		eng.Run()
	}
	if done != reads {
		t.Fatalf("done = %d, want %d", done, reads)
	}
	rereads := s.Counters.Get("crc_rereads").Value
	failures := s.Counters.Get("crc_failures").Value
	if rereads == 0 {
		t.Fatal("no rereads happened — corruption plan never fired, test proves nothing")
	}
	if rereads <= failures*crcMaxRereads {
		t.Fatalf("rereads=%d failures=%d: no reread sequence ever recovered", rereads, failures)
	}
	if int64(ok) != int64(reads)-failures {
		t.Fatalf("ok=%d, want %d reads minus %d failures", ok, reads, failures)
	}
}

// TestChecksumSurvivesSyncOverwrite: the synchronous write path changes
// stored blocks behind the queued path's back, so it must refresh the
// per-block CRC records — on the aligned edge and on the
// patched-in-place unaligned one. A stale record fails every later
// verified read of intact data with StatusChecksum.
func TestChecksumSurvivesSyncOverwrite(t *testing.T) {
	eng, s, _ := newChecksumStore(t, 0)
	v := NewSyncView(s)
	id := OID(1, 1)
	if _, err := s.Alloc(id, 3*4096, true, HintCold); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x5a}, 3*4096)
	s.Write(id, 0, want, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
	})
	eng.Run()
	check := func(when string) {
		t.Helper()
		called := false
		s.Read(id, 0, int64(len(want)), func(data []byte, err error) {
			called = true
			if err != nil {
				t.Fatalf("%s: read of intact data failed: %v", when, err)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("%s: read returned wrong bytes", when)
			}
		})
		eng.Run()
		if !called {
			t.Fatalf("%s: read never completed", when)
		}
		if got := s.Counters.Get("crc_rereads").Value; got != 0 {
			t.Fatalf("%s: crc_rereads = %d on a fault-free device", when, got)
		}
	}
	// Aligned: one whole block.
	blk := bytes.Repeat([]byte{0xc3}, 4096)
	if err := v.WriteAt(id, 4096, blk); err != nil {
		t.Fatal(err)
	}
	copy(want[4096:], blk)
	check("after aligned overwrite")
	// Unaligned: a patch straddling the first block boundary.
	patch := bytes.Repeat([]byte{0x17}, 300)
	if err := v.WriteAt(id, 4096-100, patch); err != nil {
		t.Fatal(err)
	}
	copy(want[4096-100:], patch)
	check("after patched overwrite")
}

// TestChecksumExhaustedRereadsFail: when every read attempt comes back
// damaged, the store must stop after crcMaxRereads and surface
// StatusChecksum instead of looping or returning bad bytes.
func TestChecksumExhaustedRereadsFail(t *testing.T) {
	eng, s, _ := newChecksumStore(t, 1.0)
	id := OID(1, 1)
	if _, err := s.Alloc(id, 4096, true, HintCold); err != nil {
		t.Fatal(err)
	}
	// Write uses read-modify-write only when unaligned; aligned writes
	// skip the read path, so the populate itself cannot fail.
	s.Write(id, 0, bytes.Repeat([]byte{0x77}, 4096), func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
	})
	eng.Run()
	called := false
	s.Read(id, 0, 4096, func(data []byte, err error) {
		called = true
		if err == nil {
			t.Error("read succeeded with 100% corruption")
		} else if !strings.Contains(err.Error(), "0xfffe") {
			t.Errorf("err = %v, want StatusChecksum (0xfffe)", err)
		}
		if data != nil {
			t.Error("failed read still returned data")
		}
	})
	eng.Run()
	if !called {
		t.Fatal("read callback never ran")
	}
	if got := s.Counters.Get("crc_rereads").Value; got != crcMaxRereads {
		t.Fatalf("crc_rereads = %d, want %d", got, crcMaxRereads)
	}
	if got := s.Counters.Get("crc_failures").Value; got != 1 {
		t.Fatalf("crc_failures = %d, want 1", got)
	}
}

// TestChecksumUnwrittenBlocksPass: blocks the store never wrote have no
// recorded CRC and must not trigger rereads even when the device
// mangles them — there is nothing to verify against.
func TestChecksumUnwrittenBlocksPass(t *testing.T) {
	eng, s, _ := newChecksumStore(t, 1.0)
	id := OID(1, 1)
	if _, err := s.Alloc(id, 4096, true, HintCold); err != nil {
		t.Fatal(err)
	}
	ok := false
	s.Read(id, 0, 4096, func(_ []byte, err error) { ok = err == nil })
	eng.Run()
	if !ok {
		t.Fatal("read of never-written block failed")
	}
	if got := s.Counters.Get("crc_rereads").Value; got != 0 {
		t.Fatalf("crc_rereads = %d, want 0 for unrecorded blocks", got)
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
