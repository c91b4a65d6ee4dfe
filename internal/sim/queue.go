package sim

// The event queue is a 4-ary min-heap of small value entries, replacing
// the seed kernel's container/heap over boxed *Event. The entry carries
// the full sort key (At, seq) so comparisons never chase the slot
// pointer, and the wider fan-out roughly halves tree depth versus a
// binary heap: sift-downs touch fewer cache lines per level, which is
// where a simulator that pops every event it pushes spends its time.
//
// One siftDown serves both a pop and a lane's successor taking over the
// root. It picks the minimum of four children without a data-dependent
// branch: simulated time sits on coarse grids (E18's tenant ticks share
// a 100 µs grid, hundreds to one `at`), so whether a child wins is
// decided by `seq` as often as by `at`, and a branch on that comparison
// is unpredictable. Keys are unique, so the pop order is the same
// whatever the sift strategy (TestHeapPopsInKeyOrder).
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

// lessBit is entryLess as 0 or 1, computed with flag-setting compares
// and no branch, so it can index and mask.
func lessBit(a, b heapEntry) int {
	return bit(a.at < b.at) | bit(a.at == b.at)&bit(a.seq < b.seq)
}

// bit compiles to a SETcc.
func bit(b bool) int {
	if b {
		return 1
	}
	return 0
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

// pop removes and returns the minimum entry: the last entry takes over
// the root and sifts down. The caller must ensure the heap is
// non-empty.
func (h *heap4) pop() heapEntry {
	top := h.entries[0]
	n := len(h.entries) - 1
	last := h.entries[n]
	h.entries = h.entries[:n]
	if n > 0 {
		h.siftDown(last)
	}
	return top
}

// siftDown overwrites the root with e and restores the heap property
// below it. A node with four children picks the smallest by a two-round
// tournament of lessBit index arithmetic, so the only branch per level
// is the loop's exit: has e found its level? The caller must ensure the
// heap is non-empty.
func (h *heap4) siftDown(e heapEntry) {
	q := h.entries
	n := len(q)
	i := 0
	for c := 1; c+4 <= n; c = i<<2 + 1 {
		kids := q[c : c+4 : c+4]
		a := lessBit(kids[1], kids[0])
		b := 2 + lessBit(kids[3], kids[2])
		m := (a ^ (a^b)&-lessBit(kids[b&3], kids[a&3])) & 3
		if !entryLess(kids[m], e) {
			q[i] = e
			return
		}
		q[i] = kids[m]
		i = c + m
	}
	// At most one node has one to three children, and they are leaves.
	if c := i<<2 + 1; c < n {
		m := c
		for k := c + 1; k < n; k++ {
			if entryLess(q[k], q[m]) {
				m = k
			}
		}
		if entryLess(q[m], e) {
			q[i] = q[m]
			i = m
		}
	}
	q[i] = e
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
// function or a bus (DESIGN §3): Push appends, Pop advances a head
// index and zeroes the slot it leaves so the queue pins nothing it has
// handed out, and the backing array rewinds once drained or slides
// its items forward once full, so steady traffic enqueues without
// allocating. The zero value is ready to use.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the tail. A full array whose popped head is at
// least half of it slides the queued items to the front instead of
// growing, so a queue that never drains (a standing backlog behind a
// timeout) stays within four times its peak length.
func (q *Queue[T]) Push(v T) {
	if n := len(q.buf); n == cap(q.buf) && q.head > 0 && 2*q.head >= n {
		m := copy(q.buf, q.buf[q.head:])
		clear(q.buf[m:])
		q.buf, q.head = q.buf[:m], 0
	}
	q.buf = append(q.buf, v)
}

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
