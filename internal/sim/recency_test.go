package sim

import (
	"container/list"
	"testing"
)

// TestLRUMatchesListReference drives an LRU cache built on Recency —
// a key → node map beside the list, evicting the front at capacity, the
// way seg's descriptor cache and baseline's TLB use it — and the
// textbook container/list LRU over one random tape with a small
// capacity, and compares hit or miss, and the whole recency order (so
// the next eviction victim too), at every step.
func TestLRUMatchesListReference(t *testing.T) {
	const capacity = 8
	r := NewRand(7)
	var order Recency[uint64]
	idx := make(map[uint64]int32)
	ref := list.New() // front = LRU, back = MRU
	elems := make(map[uint64]*list.Element)

	for step := 0; step < 50_000; step++ {
		k := uint64(r.Intn(40))
		i, hit := idx[k]
		e, want := elems[k]
		if hit != want {
			t.Fatalf("step %d: key %d hit=%v, reference says %v", step, k, hit, want)
		}
		switch op := r.Intn(10); {
		case op < 9: // get (op < 5) or put: a hit refreshes, a put miss inserts
			if hit {
				if *order.At(i) != k {
					t.Fatalf("step %d: node %d holds key %d, want %d", step, i, *order.At(i), k)
				}
				order.MoveBack(i)
				ref.MoveToBack(e)
			} else if op >= 5 {
				if len(idx) >= capacity {
					v := order.Front()
					delete(idx, *order.At(v))
					order.Remove(v)
					delete(elems, ref.Remove(ref.Front()).(uint64))
				}
				idx[k] = order.PushBack(k)
				elems[k] = ref.PushBack(k)
			}
		default:
			if hit {
				order.Remove(i)
				delete(idx, k)
				ref.Remove(e)
				delete(elems, k)
			}
		}
		if len(idx) != ref.Len() {
			t.Fatalf("step %d: cache holds %d, reference %d", step, len(idx), ref.Len())
		}
		n := order.Front()
		for e := ref.Front(); e != nil; e = e.Next() {
			if n == 0 || *order.At(n) != e.Value.(uint64) {
				t.Fatalf("step %d: recency order diverged from the reference", step)
			}
			n = order.nodes[n].next
		}
		if n != 0 {
			t.Fatalf("step %d: list longer than the reference", step)
		}
	}
	if len(order.nodes) > capacity+1 {
		t.Fatalf("arena grew to %d nodes for a cache of %d: removed nodes are not reused", len(order.nodes)-1, capacity)
	}
}
