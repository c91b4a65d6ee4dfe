package sim

// The event queue is a 4-ary min-heap of small value entries, replacing
// the seed kernel's container/heap over boxed *Event. The entry carries
// the full sort key (At, seq) so comparisons never chase the slot
// pointer, and the wider fan-out roughly halves tree depth versus a
// binary heap: sift-downs touch fewer cache lines per level, which is
// where a simulator that pops every event it pushes spends its time.
//
// Cancellation is lazy: Cancel tombstones the slot and the entry drains
// when it reaches the top (heap4 never removes from the middle). The
// engine's live counter, not the heap length, reports pending work.

// heapEntry is one queued event, ordered by (at, seq). seq breaks ties
// so equal-time events fire in FIFO schedule order — the determinism
// contract every experiment depends on.
type heapEntry struct {
	at   Time
	seq  uint64
	slot int32 // index into the engine's event pool; -Lane.id for a lane's head
}

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heap4 is a 4-ary min-heap over heapEntry values. Children of node i
// live at 4i+1..4i+4; parent of i is (i-1)/4.
type heap4 struct {
	entries []heapEntry
}

func (h *heap4) len() int { return len(h.entries) }

func (h *heap4) push(e heapEntry) {
	h.entries = append(h.entries, e)
	h.siftUp(len(h.entries) - 1)
}

// pop removes and returns the minimum entry. The caller must ensure the
// heap is non-empty.
//
// It uses a bottom-up (hole-percolation) sift: the vacated root is
// filled by promoting the chain of minimum children down to a leaf, and
// the heap's last element is then sifted up from that hole. A classic
// sift-down spends a fourth comparison per level re-testing the last
// element, which in a simulator is almost always a far-future event
// that belongs near the bottom anyway — so the extra sift-up here
// typically terminates after one comparison.
func (h *heap4) pop() heapEntry {
	top := h.entries[0]
	n := len(h.entries) - 1
	last := h.entries[n]
	h.entries = h.entries[:n]
	if n > 0 {
		hole := 0
		for {
			first := hole<<2 + 1
			if first >= n {
				break
			}
			min := first
			end := first + 4
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if entryLess(h.entries[c], h.entries[min]) {
					min = c
				}
			}
			h.entries[hole] = h.entries[min]
			hole = min
		}
		h.entries[hole] = last
		h.siftUp(hole)
	}
	return top
}

// replaceTop overwrites the minimum entry with e and sifts it down: a
// pop and a push, for a lane handing the root to its next event, at
// the cost of one sift. The caller must ensure the heap is non-empty.
func (h *heap4) replaceTop(e heapEntry) {
	n := len(h.entries)
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if entryLess(h.entries[c], h.entries[min]) {
				min = c
			}
		}
		if !entryLess(h.entries[min], e) {
			break
		}
		h.entries[i] = h.entries[min]
		i = min
	}
	h.entries[i] = e
}

func (h *heap4) siftUp(i int) {
	e := h.entries[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(e, h.entries[p]) {
			break
		}
		h.entries[i] = h.entries[p]
		i = p
	}
	h.entries[i] = e
}

// Queue is the FIFO the model layers put in front of a prebound event
// function or a bus (DESIGN §10): Push appends, Pop advances a head
// index and zeroes the slot it leaves so the queue pins nothing it has
// handed out, and the backing array rewinds once drained, so steady
// traffic enqueues without allocating. The zero value is ready to use.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) { q.buf = append(q.buf, v) }

// Peek returns the head item without removing it. The queue must not
// be empty.
func (q *Queue[T]) Peek() T { return q.buf[q.head] }

// Pop removes and returns the head item. The queue must not be empty.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// Reset drops every queued item and keeps the backing array.
func (q *Queue[T]) Reset() {
	clear(q.buf[q.head:])
	q.buf = q.buf[:0]
	q.head = 0
}
