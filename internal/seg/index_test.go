package seg

import (
	"testing"

	"hyperion/internal/sim"
)

// indexTestKeys builds a key pool that makes the index's hard cases
// common instead of rare: keys whose hash has its top ten bits all set
// (home is the last slot at every capacity up to 1024, so they collide
// and their run wraps the end of the table), keys whose top ten bits
// are clear (home 0: what the wrapped run collides with), the zero id
// (equal to an empty slot's key), and ordinary keys.
func indexTestKeys(r *sim.Rand) []ObjectID {
	probe := oidIndex{shift: 64 - 10}
	keys := []ObjectID{{}}
	var last, first int
	for lo := uint64(1); last < 24 || first < 8; lo++ {
		id := OID(0x4B, lo)
		switch h := probe.home(id); {
		case h == 1023 && last < 24:
			keys = append(keys, id)
			last++
		case h == 0 && first < 8:
			keys = append(keys, id)
			first++
		}
	}
	for i := 0; i < 31; i++ {
		keys = append(keys, OID(r.Uint64(), r.Uint64()))
	}
	return keys
}

// TestOIDIndexMatchesMap drives the index and a Go map through the same
// random tape, binding keys to descriptors drawn from a pool, and
// compares every key of the pool after every step.
func TestOIDIndexMatchesMap(t *testing.T) {
	r := sim.NewRand(19)
	keys := indexTestKeys(r)
	descs := make([]Segment, 97)
	var x oidIndex
	ref := make(map[ObjectID]*Segment)
	wrapped := false
	for step := 0; step < 120_000; step++ {
		id := keys[r.Intn(len(keys))]
		switch op := r.Intn(8); {
		case op < 4:
			sg := &descs[r.Intn(len(descs))]
			x.set(id, sg)
			ref[id] = sg
		case op < 7:
			x.del(id)
			delete(ref, id)
		default:
			// Drain now and then so the table refills from sparse.
			if r.Intn(500) == 0 {
				for _, k := range keys {
					x.del(k)
					delete(ref, k)
				}
			}
		}
		if x.n != len(ref) {
			t.Fatalf("step %d: len %d, map has %d", step, x.n, len(ref))
		}
		for _, k := range keys {
			if got, want := x.get(k), ref[k]; got != want {
				t.Fatalf("step %d: get(%v) = %p, map says %p", step, k, got, want)
			}
		}
		if n := len(x.slots); n > 0 && x.slots[n-1].sg != nil && x.slots[0].sg != nil {
			wrapped = true
		}
		if 2*x.n > len(x.slots) {
			t.Fatalf("step %d: load %d/%d above one half", step, x.n, len(x.slots))
		}
	}
	if !wrapped {
		t.Fatal("no run ever wrapped the end of the table: the key pool lost its purpose")
	}
}
