package seg

import (
	"container/list"
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
// random tape and compares every key of the pool after every step.
func TestOIDIndexMatchesMap(t *testing.T) {
	r := sim.NewRand(19)
	keys := indexTestKeys(r)
	var x oidIndex
	ref := make(map[ObjectID]int)
	wrapped := false
	for step := 0; step < 120_000; step++ {
		id := keys[r.Intn(len(keys))]
		switch op := r.Intn(8); {
		case op < 4:
			v := r.Intn(1 << 20)
			x.set(id, int32(v))
			ref[id] = v
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
			got, ok := x.get(k)
			want, wok := ref[k]
			if ok != wok || int(got) != want {
				t.Fatalf("step %d: get(%v) = %d,%v, map says %d,%v", step, k, got, ok, want, wok)
			}
		}
		if n := len(x.slots); n > 0 && x.slots[n-1].ref != 0 && x.slots[0].ref != 0 {
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

// TestLRUMatchesListReference drives lruCache and the textbook
// container/list LRU over one random tape with a small capacity and
// compares hit or miss, and the whole recency order (so the next
// eviction victim too), at every step.
func TestLRUMatchesListReference(t *testing.T) {
	const capacity = 8
	r := sim.NewRand(7)
	keys := indexTestKeys(r)[:40]
	segs := make(map[ObjectID]*Segment, len(keys))
	for _, k := range keys {
		segs[k] = &Segment{ID: k}
	}
	c := newLRU(capacity)
	order := list.New() // front = LRU, back = MRU
	elems := make(map[ObjectID]*list.Element)

	for step := 0; step < 50_000; step++ {
		id := keys[r.Intn(len(keys))]
		switch op := r.Intn(10); {
		case op < 5:
			sg, hit := c.get(id)
			e, want := elems[id]
			if hit != want {
				t.Fatalf("step %d: get(%v) hit=%v, reference says %v", step, id, hit, want)
			}
			if hit {
				if sg != segs[id] {
					t.Fatalf("step %d: get(%v) returned another key's segment", step, id)
				}
				order.MoveToBack(e)
			}
		case op < 9:
			c.put(id, segs[id])
			if e, ok := elems[id]; ok {
				order.MoveToBack(e)
			} else {
				if order.Len() >= capacity {
					victim := order.Remove(order.Front()).(ObjectID)
					delete(elems, victim)
				}
				elems[id] = order.PushBack(id)
			}
		default:
			c.remove(id)
			if e, ok := elems[id]; ok {
				order.Remove(e)
				delete(elems, id)
			}
		}
		if c.idx.n != order.Len() {
			t.Fatalf("step %d: cache holds %d, reference %d", step, c.idx.n, order.Len())
		}
		i := c.head
		for e := order.Front(); e != nil; e = e.Next() {
			if i < 0 || c.nodes[i].key != e.Value.(ObjectID) {
				t.Fatalf("step %d: recency order diverged from the reference", step)
			}
			i = c.nodes[i].next
		}
		if i >= 0 {
			t.Fatalf("step %d: cache list longer than the reference", step)
		}
	}
}
