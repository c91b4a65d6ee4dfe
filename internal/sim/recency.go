package sim

// Recency is the recency order of an LRU cache: a doubly linked list
// threaded by index through a node arena, front = least recently used,
// back = most. PushBack, MoveBack and Remove are O(1) and allocate only
// while the arena grows to the cache's high-water mark; removed nodes
// are reused. Eviction order is that of the textbook container/list
// form. The owner keeps its own key → node-index map and stores in each
// node whatever it needs to find the map entry again. Node indexes are
// positive; Front answers 0 for an empty list. The zero value is ready
// to use.
type Recency[T any] struct {
	nodes []recencyNode[T] // nodes[0] is the ring's sentinel
	free  int32            // removed nodes, chained via next; 0 = none
}

type recencyNode[T any] struct {
	val        T
	prev, next int32
}

// PushBack adds v as the most recently used node and returns its index.
func (l *Recency[T]) PushBack(v T) int32 {
	if len(l.nodes) == 0 {
		l.nodes = append(l.nodes, recencyNode[T]{})
	}
	i := l.free
	if i != 0 {
		l.free = l.nodes[i].next
		l.nodes[i].val = v
	} else {
		l.nodes = append(l.nodes, recencyNode[T]{val: v})
		i = int32(len(l.nodes) - 1)
	}
	l.link(i)
	return i
}

// MoveBack marks node i the most recently used.
func (l *Recency[T]) MoveBack(i int32) {
	if l.nodes[0].prev == i {
		return
	}
	l.unlink(i)
	l.link(i)
}

// Remove drops node i, zeroing its value; its index will be reused.
func (l *Recency[T]) Remove(i int32) {
	l.unlink(i)
	var zero T
	l.nodes[i].val = zero
	l.nodes[i].next = l.free
	l.free = i
}

// Front returns the least recently used node, or 0 when the list is
// empty.
func (l *Recency[T]) Front() int32 {
	if len(l.nodes) == 0 {
		return 0
	}
	return l.nodes[0].next
}

// At returns the value stored in node i.
func (l *Recency[T]) At(i int32) *T { return &l.nodes[i].val }

func (l *Recency[T]) unlink(i int32) {
	n := &l.nodes[i]
	l.nodes[n.prev].next = n.next
	l.nodes[n.next].prev = n.prev
}

// link makes node i the sentinel's predecessor: the back of the list.
func (l *Recency[T]) link(i int32) {
	back := l.nodes[0].prev
	l.nodes[i].prev, l.nodes[i].next = back, 0
	l.nodes[back].next = i
	l.nodes[0].prev = i
}
