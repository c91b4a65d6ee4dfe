package kvssd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"hyperion/internal/nvme"
	"hyperion/internal/seg"
	"hyperion/internal/sim"
	"hyperion/internal/storage/lsm"
)

func newView(t testing.TB) *seg.SyncView {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := nvme.DefaultConfig("nvme")
	cfg.Blocks = 1 << 20
	host := nvme.NewHost(nvme.New(eng, cfg), nil)
	scfg := seg.DefaultConfig()
	scfg.DRAMBytes = 64 << 20
	scfg.CheckpointEvery = 0
	return seg.NewSyncView(seg.New(eng, scfg, []*nvme.Host{host}))
}

func backends() []Backend { return []Backend{BackendBTree, BackendLSM} }

func TestPutGetDeleteBothBackends(t *testing.T) {
	for _, be := range backends() {
		t.Run(be.String(), func(t *testing.T) {
			kv, err := Create(newView(t), seg.OID(300, 0), be, true)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("key-%04d", i))
				v := bytes.Repeat([]byte{byte(i)}, 100+i)
				if err := kv.Put(k, v); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("key-%04d", i))
				v, ok, err := kv.Get(k)
				if err != nil || !ok {
					t.Fatalf("Get(%s) = %v,%v", k, ok, err)
				}
				if !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 100+i)) {
					t.Fatalf("Get(%s) wrong value", k)
				}
			}
			if _, ok, _ := kv.Get([]byte("missing")); ok {
				t.Fatal("found absent key")
			}
			// GetAppend extends the caller's buffer in place and hands
			// out bytes of its own: a second read into another buffer,
			// or a Put over the key, must not disturb the first.
			buf := append(make([]byte, 0, 512), "hdr:"...)
			first, ok, err := kv.GetAppend(buf, []byte("key-0007"))
			if err != nil || !ok {
				t.Fatalf("GetAppend = %v,%v", ok, err)
			}
			if &first[0] != &buf[:1][0] {
				t.Fatal("GetAppend did not extend the caller's buffer in place")
			}
			want := append([]byte("hdr:"), bytes.Repeat([]byte{7}, 107)...)
			second, _, _ := kv.GetAppend(make([]byte, 0, 512), []byte("key-0008"))
			if err := kv.Put([]byte("key-0007"), bytes.Repeat([]byte{0xEE}, 107)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, want) || !bytes.Equal(second, bytes.Repeat([]byte{8}, 108)) {
				t.Fatal("GetAppend results alias each other or the store")
			}
			if miss, ok, _ := kv.GetAppend(first, []byte("missing")); ok || !bytes.Equal(miss, want) {
				t.Fatal("GetAppend of an absent key changed dst")
			}
			ok, err = kv.Delete([]byte("key-0000"))
			if err != nil || !ok {
				t.Fatalf("Delete = %v,%v", ok, err)
			}
			if _, ok, _ := kv.Get([]byte("key-0000")); ok {
				t.Fatal("deleted key still present")
			}
			if ok, _ := kv.Delete([]byte("key-0000")); ok {
				t.Fatal("double delete reported present")
			}
		})
	}
}

func TestOverwriteKeepsLatest(t *testing.T) {
	kv, err := Create(newView(t), seg.OID(300, 0), BackendBTree, true)
	if err != nil {
		t.Fatal(err)
	}
	k := []byte("k")
	for i := 0; i < 10; i++ {
		if err := kv.Put(k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, _ := kv.Get(k)
	if !ok || v[0] != 9 {
		t.Fatalf("latest = %v", v)
	}
}

func TestSizeLimits(t *testing.T) {
	kv, err := Create(newView(t), seg.OID(300, 0), BackendBTree, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(nil, []byte("v")); err != ErrKeyTooLarge {
		t.Fatalf("empty key err = %v", err)
	}
	if err := kv.Put(make([]byte, 2000), []byte("v")); err != ErrKeyTooLarge {
		t.Fatalf("big key err = %v", err)
	}
	if err := kv.Put([]byte("k"), make([]byte, 1<<19)); err != ErrValTooLarge {
		t.Fatalf("big val err = %v", err)
	}
}

func TestLogChunkRollover(t *testing.T) {
	kv, err := Create(newView(t), seg.OID(300, 0), BackendBTree, true)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 100<<10)
	for i := 0; i < 25; i++ { // 2.5 MB > 2 chunks
		if err := kv.Put([]byte(fmt.Sprintf("big-%d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if kv.log.Len() < 3 {
		t.Fatalf("chunks = %d, want ≥3", kv.log.Len())
	}
	v, ok, err := kv.Get([]byte("big-0"))
	if err != nil || !ok || len(v) != len(val) {
		t.Fatalf("cross-chunk get = %v,%v,len %d", ok, err, len(v))
	}
	if kv.LogBytes() < 25*int64(len(val)) {
		t.Fatalf("LogBytes = %d", kv.LogBytes())
	}
}

func TestReopen(t *testing.T) {
	for _, be := range backends() {
		t.Run(be.String(), func(t *testing.T) {
			v := newView(t)
			kv, err := Create(v, seg.OID(300, 0), be, true)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				_ = kv.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
			}
			if x, ok := kv.idx.(lsmIndex); ok {
				if err := x.t.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			kv2, err := Open(v, seg.OID(300, 0))
			if err != nil {
				t.Fatal(err)
			}
			if kv2.Backend() != be {
				t.Fatalf("backend = %v", kv2.Backend())
			}
			got, ok, err := kv2.Get([]byte("k42"))
			if err != nil || !ok || string(got) != "v42" {
				t.Fatalf("reopened get = %q,%v,%v", got, ok, err)
			}
			if err := kv2.Put([]byte("new"), []byte("val")); err != nil {
				t.Fatal(err)
			}
			got, ok, _ = kv2.Get([]byte("new"))
			if !ok || string(got) != "val" {
				t.Fatal("post-reopen put lost")
			}
		})
	}
}

func TestPropertyMatchesModel(t *testing.T) {
	for _, be := range backends() {
		be := be
		t.Run(be.String(), func(t *testing.T) {
			f := func(seed uint64) bool {
				kv, err := Create(newView(t), seg.OID(300, 0), be, true)
				if err != nil {
					return false
				}
				r := sim.NewRand(seed)
				model := map[string]string{}
				for i := 0; i < 300; i++ {
					k := fmt.Sprintf("key-%d", r.Intn(80))
					switch r.Intn(4) {
					case 0, 1, 2:
						val := fmt.Sprintf("val-%d", r.Uint64())
						model[k] = val
						if kv.Put([]byte(k), []byte(val)) != nil {
							return false
						}
					case 3:
						_, in := model[k]
						delete(model, k)
						ok, err := kv.Delete([]byte(k))
						if err != nil || ok != in {
							return false
						}
					}
				}
				for k, want := range model {
					got, ok, err := kv.Get([]byte(k))
					if err != nil || !ok || string(got) != want {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCollisionIsRefused builds the one state a 64-bit hash makes
// unlikely: key K's slot, hash(K), points at another key J's record.
// Put(K) must refuse with ErrCollision and leave J's record in place,
// and K reads as absent.
func TestCollisionIsRefused(t *testing.T) {
	for _, be := range backends() {
		t.Run(be.String(), func(t *testing.T) {
			kv, err := Create(newView(t), seg.OID(300, 0), be, true)
			if err != nil {
				t.Fatal(err)
			}
			j, k := []byte("key-J"), []byte("key-K")
			ref, err := kv.appendRecord(j, []byte("J's value"))
			if err != nil {
				t.Fatal(err)
			}
			if err := kv.idx.Put(hash(k), ref); err != nil {
				t.Fatal(err)
			}
			if err := kv.Put(k, []byte("K's value")); !errors.Is(err, ErrCollision) {
				t.Fatalf("Put(K) = %v, want ErrCollision", err)
			}
			if got, ok, err := kv.idx.Get(hash(k)); err != nil || !ok || got != ref {
				t.Fatalf("K's slot = %#x,%v,%v, want J's record %#x", got, ok, err, ref)
			}
			if gk, gv, err := kv.readRecord(ref); err != nil || string(gk) != "key-J" || string(gv) != "J's value" {
				t.Fatalf("J's record = %q,%q,%v", gk, gv, err)
			}
			if v, ok, err := kv.Get(k); err != nil || ok {
				t.Fatalf("Get(K) = %q,%v,%v, want not found", v, ok, err)
			}
			if ok, err := kv.Delete(k); err != nil || ok {
				t.Fatalf("Delete(K) = %v,%v, want false", ok, err)
			}
		})
	}
}

// TestDeletedKeyStaysDeleted plants what a probe chain left after "Put
// A; Put B, pushed to hash(B)+1 by A; Delete A": a tombstone in
// hash(B)'s slot and B's record one slot on. A chain claimed the
// tombstone for the next Put of B, and after a Delete of B its Get
// walked past the new tombstone to the stale record. B lives in its own
// slot only, so once deleted it stays deleted.
func TestDeletedKeyStaysDeleted(t *testing.T) {
	for _, be := range backends() {
		t.Run(be.String(), func(t *testing.T) {
			kv, err := Create(newView(t), seg.OID(300, 0), be, true)
			if err != nil {
				t.Fatal(err)
			}
			b := []byte("key-B")
			stale, err := kv.appendRecord(b, []byte("v1"))
			if err != nil {
				t.Fatal(err)
			}
			if err := kv.idx.Put(hash(b), deletedSlot); err != nil {
				t.Fatal(err)
			}
			if err := kv.idx.Put(hash(b)+1, stale); err != nil {
				t.Fatal(err)
			}
			if err := kv.Put(b, []byte("v2")); err != nil {
				t.Fatal(err)
			}
			if v, ok, err := kv.Get(b); err != nil || !ok || string(v) != "v2" {
				t.Fatalf("Get(B) = %q,%v,%v, want v2", v, ok, err)
			}
			if ok, err := kv.Delete(b); err != nil || !ok {
				t.Fatalf("Delete(B) = %v,%v, want true", ok, err)
			}
			if v, ok, err := kv.Get(b); err != nil || ok {
				t.Fatalf("Get(B) after Delete = %q,%v,%v, want not found", v, ok, err)
			}
		})
	}
}

func TestCostDiffersBetweenBackends(t *testing.T) {
	// Not a strict ordering test — just that both backends charge
	// plausible, non-zero device time.
	for _, be := range backends() {
		v := newView(t)
		kv, err := Create(v, seg.OID(300, 0), be, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			_ = kv.Put([]byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte("x"), 256))
		}
		v.TakeCost()
		if _, _, err := kv.Get([]byte("k250")); err != nil {
			t.Fatal(err)
		}
		if c := v.TakeCost(); c <= 0 {
			t.Fatalf("%v: zero get cost", be)
		}
	}
}

func BenchmarkPutGet(b *testing.B) {
	for _, be := range backends() {
		b.Run(be.String(), func(b *testing.B) {
			kv, err := Create(newView(b), seg.OID(300, 0), be, true)
			if err != nil {
				b.Fatal(err)
			}
			val := bytes.Repeat([]byte("v"), 100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := []byte(fmt.Sprintf("key-%d", i%10000))
				if i%2 == 0 {
					if err := kv.Put(k, val); err != nil {
						b.Fatal(err)
					}
				} else if _, _, err := kv.Get(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKVPut is the write half of the hyperbench kvssd probe on its
// fixture (B+ tree backend, 100-byte values, 10k pre-rendered keys):
// probe the index, compare the stored key in place, patch the record
// into the log's tail block, rewrite the meta block, update the leaf.
func BenchmarkKVPut(b *testing.B) {
	kv, err := Create(newView(b), seg.OID(300, 0), BackendBTree, true)
	if err != nil {
		b.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 100)
	keys := make([][]byte, 10_000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
	}
	i := 0
	put := func() {
		if err := kv.Put(keys[i%len(keys)], val); err != nil {
			b.Fatal(err)
		}
		i++
	}
	// Steady state is an overwrite: every key indexed, the record buffer
	// grown, the log's root image retained by seg.ChunkList.
	for range keys {
		put()
	}
	if a := testing.AllocsPerRun(200, put); a != 0 {
		b.Fatalf("steady-state put allocates %v times", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		put()
	}
}

// BenchmarkKVSpillCycle is E9's spill-hit step (apps/lb's Steer on a
// flow found in the spill store) on the B+ tree backend: read a flow's
// 4-byte backend address back into a caller's buffer, spill a victim
// flow in its place, delete the flow's record. Flow keys are 8-byte
// words, 10k spilled at any time; every index operation after a Get of
// the same slot replays that Get's descent.
func BenchmarkKVSpillCycle(b *testing.B) {
	const spilled = 10_000
	kv, err := Create(newView(b), seg.OID(300, 0), BackendBTree, true)
	if err != nil {
		b.Fatal(err)
	}
	var kb [8]byte
	var val, out [4]byte
	key := func(k uint64) []byte {
		binary.LittleEndian.PutUint64(kb[:], k)
		return kb[:]
	}
	for k := uint64(0); k < spilled; k++ {
		if err := kv.Put(key(k), val[:]); err != nil {
			b.Fatal(err)
		}
	}
	next := uint64(0) // the oldest spilled flow
	cycle := func() {
		flow := next
		next++
		if got, ok, err := kv.GetAppend(out[:0], key(flow)); err != nil || !ok || len(got) != 4 {
			b.Fatalf("GetAppend(%d) = %v,%v,%v", flow, got, ok, err)
		}
		if err := kv.Put(key(flow+spilled), val[:]); err != nil {
			b.Fatal(err)
		}
		if ok, err := kv.Delete(key(flow)); err != nil || !ok {
			b.Fatalf("Delete(%d) = %v,%v", flow, ok, err)
		}
	}
	if a := testing.AllocsPerRun(200, cycle); a != 0 {
		b.Fatalf("steady-state spill cycle allocates %v times", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		cycle()
	}
}

// smash overwrites everything after an object's magic with ones, so
// every count in it overruns the block.
func smash(t *testing.T, v *seg.SyncView, id seg.ObjectID, size int64) {
	t.Helper()
	img, err := v.ReadAt(id, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	for i := 4; i < len(img); i++ {
		img[i] = 0xFF
	}
	if err := v.WriteAt(id, 0, img); err != nil {
		t.Fatal(err)
	}
}

func TestOpenCorruptRoot(t *testing.T) {
	root := seg.OID(300, 0)
	t.Run("root", func(t *testing.T) {
		v := newView(t)
		if _, err := Create(v, root, BackendBTree, true); err != nil {
			t.Fatal(err)
		}
		smash(t, v, root, 4096)
		if _, err := Open(v, root); !errors.Is(err, ErrCorrupt) || !errors.Is(err, seg.ErrCorrupt) {
			t.Fatalf("err = %v, want kvssd and seg ErrCorrupt", err)
		}
	})
	t.Run("backend", func(t *testing.T) {
		v := newView(t)
		if _, err := Create(v, root, BackendBTree, true); err != nil {
			t.Fatal(err)
		}
		log, err := seg.OpenChunkList(v, root, metaMagic)
		if err != nil {
			t.Fatal(err)
		}
		log.Owner = 7
		if err := log.Sync(); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(v, root); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("lsm manifest", func(t *testing.T) {
		v := newView(t)
		if _, err := Create(v, root, BackendLSM, true); err != nil {
			t.Fatal(err)
		}
		smash(t, v, seg.OID(300, 1), 8192)
		if _, err := Open(v, root); !errors.Is(err, lsm.ErrCorrupt) {
			t.Fatalf("err = %v, want lsm.ErrCorrupt", err)
		}
	})
}
