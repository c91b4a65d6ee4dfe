// Package bptree implements a durable B+ tree over the single-level
// segment store. Every node is one segment-store object, so a lookup is
// a chain of object reads — exactly the pointer-chasing workload the
// paper's §2.4 wants to offload next to storage instead of paying one
// network RTT per hop.
package bptree

import (
	"errors"
	"fmt"
	"hyperion/internal/wire"

	"hyperion/internal/seg"
)

// NodeBytes is the on-store size of one node.
const NodeBytes = 4096

// Fanout limits chosen to fit NodeBytes with headroom:
// leaf entry = key(8)+val(8); internal entry = key(8)+child(16).
const (
	LeafCap = 200
	IntCap  = 150
)

// ErrCorrupt reports a node whose on-flash bytes fail validation.
var ErrCorrupt = errors.New("bptree: corrupt node")

const (
	kindLeaf     = 1
	kindInternal = 2
	metaMagic    = 0x42505431 // "BPT1"
)

// Tree is a B+ tree handle. It is not safe for concurrent use (the DPU
// runs handlers run-to-completion).
type Tree struct {
	v         *seg.SyncView
	meta      seg.ObjectID
	root      seg.ObjectID
	height    int
	nextLo    uint64
	prefix    uint64
	durable   bool
	metaDirty bool

	// Reused node-image scratch: wbuf is zeroed before each encode so
	// stored images stay byte-identical to fresh-buffer encodes; rbuf
	// backs readNode (decoded nodes copy out of it, so it is free to
	// reuse). The tree is single-threaded.
	wbuf    []byte
	rbuf    []byte
	metaBuf [64]byte

	// arena holds decode targets for readNode. Slots are recycled at the
	// start of every public operation (and as descents release their
	// parents), so one operation's live nodes never alias; decoded nodes
	// are never cached across reads — every readNode re-decodes from the
	// store. Slot arrays carry one-past-capacity headroom so the insert
	// path's pre-split appends stay in place.
	arena     []*node
	arenaUsed int

	// Stats.
	NodesRead, NodesWritten, Splits int64
}

// beginOp recycles the whole node arena; called on entry to every public
// tree operation.
func (t *Tree) beginOp() { t.arenaUsed = 0 }

// arenaNode returns the next free decode slot, growing the arena on
// first use.
func (t *Tree) arenaNode() *node {
	if t.arenaUsed == len(t.arena) {
		t.arena = append(t.arena, &node{})
	}
	n := t.arena[t.arenaUsed]
	t.arenaUsed++
	return n
}

// releaseNode returns the most recently decoded node to the arena; only
// valid when the caller owns that node and no later-decoded nodes are
// live (descent loops releasing a parent before reading its child).
func (t *Tree) releaseNode() { t.arenaUsed-- }

type node struct {
	kind     uint8
	keys     []uint64
	vals     []uint64       // leaf
	children []seg.ObjectID // internal: len(keys)+1
	next     seg.ObjectID   // leaf chain
}

// Create initializes a new tree whose metadata lives at metaID. The
// tree's nodes use object ids with Hi = metaID.Hi and Lo allocated from
// a counter starting at metaID.Lo+1.
func Create(v *seg.SyncView, metaID seg.ObjectID, durable bool) (*Tree, error) {
	t := &Tree{v: v, meta: metaID, prefix: metaID.Hi, nextLo: metaID.Lo + 1, durable: durable, height: 1}
	if _, err := v.Alloc(metaID, 64, durable, seg.HintAuto); err != nil {
		return nil, err
	}
	rootID, err := t.newNodeID()
	if err != nil {
		return nil, err
	}
	t.root = rootID
	if err := t.writeNode(rootID, &node{kind: kindLeaf}); err != nil {
		return nil, err
	}
	return t, t.writeMeta()
}

// Open loads an existing tree from its metadata object.
func Open(v *seg.SyncView, metaID seg.ObjectID) (*Tree, error) {
	t := &Tree{v: v, meta: metaID, prefix: metaID.Hi}
	buf, err := v.ReadAt(metaID, 0, 64)
	if err != nil {
		return nil, err
	}
	if wire.LE32At(buf, 0) != metaMagic {
		return nil, fmt.Errorf("%w: bad meta magic", ErrCorrupt)
	}
	t.root = seg.ObjectID{Hi: wire.LE64At(buf, 8), Lo: wire.LE64At(buf, 16)}
	t.height = int(wire.LE32At(buf, 24))
	t.nextLo = wire.LE64At(buf, 32)
	t.durable = buf[40] == 1
	return t, nil
}

func (t *Tree) writeMeta() error {
	buf := t.metaBuf[:]
	wire.PutLE32At(buf, 0, metaMagic)
	wire.PutLE64At(buf, 8, t.root.Hi)
	wire.PutLE64At(buf, 16, t.root.Lo)
	wire.PutLE32At(buf, 24, uint32(t.height))
	wire.PutLE64At(buf, 32, t.nextLo)
	if t.durable {
		buf[40] = 1
	}
	return t.v.WriteAt(t.meta, 0, buf)
}

func (t *Tree) newNodeID() (seg.ObjectID, error) {
	id := seg.ObjectID{Hi: t.prefix, Lo: t.nextLo}
	t.nextLo++
	t.metaDirty = true
	if _, err := t.v.Alloc(id, NodeBytes, t.durable, seg.HintAuto); err != nil {
		return seg.ObjectID{}, err
	}
	return id, nil
}

// flushMeta persists the id allocator and root pointer if they changed,
// so a reopened tree never re-allocates a live node id.
func (t *Tree) flushMeta() error {
	if !t.metaDirty {
		return nil
	}
	t.metaDirty = false
	return t.writeMeta()
}

// Height returns the tree height (1 = just a leaf).
func (t *Tree) Height() int { return t.height }

// Root returns the root object id (used by offloaded traversals).
func (t *Tree) Root() seg.ObjectID { return t.root }

// encode/decode nodes.

func (t *Tree) writeNode(id seg.ObjectID, n *node) error {
	if t.wbuf == nil {
		t.wbuf = make([]byte, NodeBytes)
	}
	buf := t.wbuf
	clear(buf)
	buf[0] = n.kind
	wire.PutLE16At(buf, 2, uint16(len(n.keys)))
	off := 8
	switch n.kind {
	case kindLeaf:
		wire.PutLE64At(buf, off, n.next.Hi)
		wire.PutLE64At(buf, off+8, n.next.Lo)
		off += 16
		for i, k := range n.keys {
			wire.PutLE64At(buf, off+i*8, k)
		}
		off += LeafCap * 8
		for i, v := range n.vals {
			wire.PutLE64At(buf, off+i*8, v)
		}
	case kindInternal:
		for i, k := range n.keys {
			wire.PutLE64At(buf, off+i*8, k)
		}
		off += IntCap * 8
		for i, c := range n.children {
			wire.PutLE64At(buf, off+i*16, c.Hi)
			wire.PutLE64At(buf, off+i*16+8, c.Lo)
		}
	default:
		return fmt.Errorf("%w: kind %d", ErrCorrupt, n.kind)
	}
	t.NodesWritten++
	return t.v.WriteAt(id, 0, buf)
}

func (t *Tree) readNode(id seg.ObjectID) (*node, error) {
	buf, err := t.v.ReadAtBuf(id, 0, NodeBytes, t.rbuf)
	if err != nil {
		return nil, err
	}
	t.rbuf = buf
	n := t.arenaNode()
	if err := decodeNodeInto(n, buf); err != nil {
		t.releaseNode()
		return nil, err
	}
	return n, nil
}

// growU64 resizes s to n entries, reallocating with capHint headroom
// only when capacity is insufficient. Contents are unspecified.
func growU64(s []uint64, n, capHint int) []uint64 {
	if cap(s) < n {
		if capHint < n {
			capHint = n
		}
		return make([]uint64, n, capHint)
	}
	return s[:n]
}

func growIDs(s []seg.ObjectID, n, capHint int) []seg.ObjectID {
	if cap(s) < n {
		if capHint < n {
			capHint = n
		}
		return make([]seg.ObjectID, n, capHint)
	}
	return s[:n]
}

// decodeNodeInto parses a raw node image into n, reusing n's slice
// capacity. Equivalent to decodeNode except for allocation behavior.
func decodeNodeInto(n *node, buf []byte) error {
	if len(buf) < NodeBytes {
		return fmt.Errorf("%w: short node", ErrCorrupt)
	}
	n.kind = buf[0]
	cnt := int(wire.LE16At(buf, 2))
	off := 8
	switch n.kind {
	case kindLeaf:
		if cnt > LeafCap {
			return fmt.Errorf("%w: leaf count %d", ErrCorrupt, cnt)
		}
		n.next = seg.ObjectID{Hi: wire.LE64At(buf, off), Lo: wire.LE64At(buf, off+8)}
		off += 16
		n.children = n.children[:0]
		n.keys = growU64(n.keys, cnt, LeafCap+1)
		n.vals = growU64(n.vals, cnt, LeafCap+1)
		for i := 0; i < cnt; i++ {
			n.keys[i] = wire.LE64At(buf, off+i*8)
		}
		off += LeafCap * 8
		for i := 0; i < cnt; i++ {
			n.vals[i] = wire.LE64At(buf, off+i*8)
		}
	case kindInternal:
		if cnt > IntCap {
			return fmt.Errorf("%w: internal count %d", ErrCorrupt, cnt)
		}
		n.next = seg.ObjectID{}
		n.vals = n.vals[:0]
		n.keys = growU64(n.keys, cnt, IntCap+1)
		for i := 0; i < cnt; i++ {
			n.keys[i] = wire.LE64At(buf, off+i*8)
		}
		off += IntCap * 8
		n.children = growIDs(n.children, cnt+1, IntCap+2)
		for i := 0; i <= cnt; i++ {
			n.children[i] = seg.ObjectID{
				Hi: wire.LE64At(buf, off+i*16),
				Lo: wire.LE64At(buf, off+i*16+8),
			}
		}
	default:
		return fmt.Errorf("%w: kind %d", ErrCorrupt, n.kind)
	}
	return nil
}

// DecodeNode parses a raw node image (exported for the offloaded eBPF
// traversal, which reads node bytes through a helper window).
func DecodeNode(buf []byte) (kind uint8, keys []uint64, valsOrChildren []uint64, next seg.ObjectID, err error) {
	n, e := decodeNode(buf)
	if e != nil {
		return 0, nil, nil, seg.ObjectID{}, e
	}
	if n.kind == kindLeaf {
		return n.kind, n.keys, n.vals, n.next, nil
	}
	flat := make([]uint64, 0, len(n.children)*2)
	for _, c := range n.children {
		flat = append(flat, c.Hi, c.Lo)
	}
	return n.kind, n.keys, flat, seg.ObjectID{}, nil
}

func decodeNode(buf []byte) (*node, error) {
	if len(buf) < NodeBytes {
		return nil, fmt.Errorf("%w: short node", ErrCorrupt)
	}
	n := &node{kind: buf[0]}
	cnt := int(wire.LE16At(buf, 2))
	off := 8
	switch n.kind {
	case kindLeaf:
		if cnt > LeafCap {
			return nil, fmt.Errorf("%w: leaf count %d", ErrCorrupt, cnt)
		}
		n.next = seg.ObjectID{Hi: wire.LE64At(buf, off), Lo: wire.LE64At(buf, off+8)}
		off += 16
		if cnt > 0 {
			// One exact-size backing array for both slices; the capacity
			// caps keep any later append from crossing into vals.
			kv := make([]uint64, 2*cnt)
			n.keys, n.vals = kv[:cnt:cnt], kv[cnt:]
			for i := 0; i < cnt; i++ {
				n.keys[i] = wire.LE64At(buf, off+i*8)
			}
			off += LeafCap * 8
			for i := 0; i < cnt; i++ {
				n.vals[i] = wire.LE64At(buf, off+i*8)
			}
		}
	case kindInternal:
		if cnt > IntCap {
			return nil, fmt.Errorf("%w: internal count %d", ErrCorrupt, cnt)
		}
		n.keys = make([]uint64, cnt)
		for i := 0; i < cnt; i++ {
			n.keys[i] = wire.LE64At(buf, off+i*8)
		}
		off += IntCap * 8
		n.children = make([]seg.ObjectID, cnt+1)
		for i := 0; i <= cnt; i++ {
			n.children[i] = seg.ObjectID{
				Hi: wire.LE64At(buf, off+i*16),
				Lo: wire.LE64At(buf, off+i*16+8),
			}
		}
	default:
		return nil, fmt.Errorf("%w: kind %d", ErrCorrupt, n.kind)
	}
	return n, nil
}

// search returns the index of the first key >= k.
func search(keys []uint64, k uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the value for key.
func (t *Tree) Get(key uint64) (uint64, bool, error) {
	t.beginOp()
	id := t.root
	for {
		n, err := t.readNodeCounted(id)
		if err != nil {
			return 0, false, err
		}
		if n.kind == kindLeaf {
			i := search(n.keys, key)
			if i < len(n.keys) && n.keys[i] == key {
				return n.vals[i], true, nil
			}
			return 0, false, nil
		}
		i := search(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			i++
		}
		id = n.children[i]
		t.releaseNode() // parent is dead; let the child reuse its slot
	}
}

func (t *Tree) readNodeCounted(id seg.ObjectID) (*node, error) {
	t.NodesRead++
	return t.readNode(id)
}

// Insert adds or replaces key → val.
func (t *Tree) Insert(key, val uint64) error {
	t.beginOp()
	promoted, newChild, err := t.insert(t.root, key, val)
	if err != nil {
		return err
	}
	if newChild.IsZero() {
		return t.flushMeta()
	}
	// Root split: grow the tree.
	newRootID, err := t.newNodeID()
	if err != nil {
		return err
	}
	root := &node{kind: kindInternal, keys: []uint64{promoted}, children: []seg.ObjectID{t.root, newChild}}
	if err := t.writeNode(newRootID, root); err != nil {
		return err
	}
	t.root = newRootID
	t.height++
	return t.writeMeta()
}

// insert descends into id; if the child splits it returns the promoted
// key and the new right sibling id.
func (t *Tree) insert(id seg.ObjectID, key, val uint64) (uint64, seg.ObjectID, error) {
	n, err := t.readNodeCounted(id)
	if err != nil {
		return 0, seg.ObjectID{}, err
	}
	if n.kind == kindLeaf {
		i := search(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			n.vals[i] = val
			return 0, seg.ObjectID{}, t.writeNode(id, n)
		}
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, 0)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = val
		if len(n.keys) <= LeafCap {
			return 0, seg.ObjectID{}, t.writeNode(id, n)
		}
		// Split leaf.
		mid := len(n.keys) / 2
		rightID, err := t.newNodeID()
		if err != nil {
			return 0, seg.ObjectID{}, err
		}
		right := &node{kind: kindLeaf, keys: append([]uint64(nil), n.keys[mid:]...), vals: append([]uint64(nil), n.vals[mid:]...), next: n.next}
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		n.next = rightID
		if err := t.writeNode(rightID, right); err != nil {
			return 0, seg.ObjectID{}, err
		}
		if err := t.writeNode(id, n); err != nil {
			return 0, seg.ObjectID{}, err
		}
		t.Splits++
		return right.keys[0], rightID, nil
	}
	// Internal node.
	i := search(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		i++
	}
	promoted, newChild, err := t.insert(n.children[i], key, val)
	if err != nil || newChild.IsZero() {
		return 0, seg.ObjectID{}, err
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = promoted
	n.children = append(n.children, seg.ObjectID{})
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = newChild
	if len(n.keys) <= IntCap {
		return 0, seg.ObjectID{}, t.writeNode(id, n)
	}
	// Split internal node: middle key moves up.
	mid := len(n.keys) / 2
	upKey := n.keys[mid]
	rightID, err := t.newNodeID()
	if err != nil {
		return 0, seg.ObjectID{}, err
	}
	right := &node{
		kind:     kindInternal,
		keys:     append([]uint64(nil), n.keys[mid+1:]...),
		children: append([]seg.ObjectID(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	if err := t.writeNode(rightID, right); err != nil {
		return 0, seg.ObjectID{}, err
	}
	if err := t.writeNode(id, n); err != nil {
		return 0, seg.ObjectID{}, err
	}
	t.Splits++
	return upKey, rightID, nil
}

// Minimum occupancy thresholds for rebalancing.
const (
	leafMin = LeafCap / 2
	intMin  = IntCap / 2
)

// Delete removes key, reporting whether it was present. Underflowed
// nodes rebalance by borrowing from a sibling or merging into it, and
// the tree shrinks when the root empties.
func (t *Tree) Delete(key uint64) (bool, error) {
	t.beginOp()
	found, _, err := t.delete(t.root, key)
	if err != nil || !found {
		return found, err
	}
	// Collapse a childless root chain: an internal root with a single
	// child makes that child the new root.
	for {
		t.beginOp() // the removal recursion's nodes are dead here
		n, rerr := t.readNodeCounted(t.root)
		if rerr != nil {
			return true, rerr
		}
		if n.kind != kindInternal || len(n.keys) != 0 {
			break
		}
		old := t.root
		t.root = n.children[0]
		t.height--
		t.metaDirty = true
		if ferr := t.v.Free(old); ferr != nil {
			return true, ferr
		}
	}
	return true, t.flushMeta()
}

// delete removes key under id. underflow reports whether the node at id
// fell below its minimum (the parent then rebalances it).
func (t *Tree) delete(id seg.ObjectID, key uint64) (found, underflow bool, err error) {
	n, err := t.readNodeCounted(id)
	if err != nil {
		return false, false, err
	}
	if n.kind == kindLeaf {
		i := search(n.keys, key)
		if i >= len(n.keys) || n.keys[i] != key {
			return false, false, nil
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		if err := t.writeNode(id, n); err != nil {
			return true, false, err
		}
		return true, len(n.keys) < leafMin, nil
	}
	i := search(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		i++
	}
	found, childUnder, err := t.delete(n.children[i], key)
	if err != nil || !found || !childUnder {
		return found, false, err
	}
	if err := t.rebalanceChild(id, n, i); err != nil {
		return true, false, err
	}
	min := intMin
	if n.kind == kindLeaf {
		min = leafMin
	}
	return true, len(n.keys) < min, nil
}

// rebalanceChild fixes an underflowed child i of parent n (at parent
// id): borrow one entry from a richer sibling, or merge with a sibling
// when both are at minimum.
func (t *Tree) rebalanceChild(parentID seg.ObjectID, parent *node, i int) error {
	child, err := t.readNodeCounted(parent.children[i])
	if err != nil {
		return err
	}
	min := leafMin
	if child.kind == kindInternal {
		min = intMin
	}
	// Try the left sibling first, then the right.
	if i > 0 {
		left, err := t.readNodeCounted(parent.children[i-1])
		if err != nil {
			return err
		}
		if len(left.keys) > min {
			t.borrowFromLeft(parent, i, left, child)
			return t.writeNodes(parentID, parent, parent.children[i-1], left, parent.children[i], child)
		}
		// Merge child into left.
		t.mergeNodes(parent, i-1, left, child)
		if err := t.v.Free(parent.children[i]); err != nil {
			return err
		}
		parent.keys = append(parent.keys[:i-1], parent.keys[i:]...)
		parent.children = append(parent.children[:i], parent.children[i+1:]...)
		return t.writeNodes(parentID, parent, parent.children[i-1], left)
	}
	right, err := t.readNodeCounted(parent.children[i+1])
	if err != nil {
		return err
	}
	if len(right.keys) > min {
		t.borrowFromRight(parent, i, child, right)
		return t.writeNodes(parentID, parent, parent.children[i], child, parent.children[i+1], right)
	}
	// Merge right into child.
	t.mergeNodes(parent, i, child, right)
	if err := t.v.Free(parent.children[i+1]); err != nil {
		return err
	}
	parent.keys = append(parent.keys[:i], parent.keys[i+1:]...)
	parent.children = append(parent.children[:i+1], parent.children[i+2:]...)
	return t.writeNodes(parentID, parent, parent.children[i], child)
}

// borrowFromLeft moves the left sibling's last entry into child.
func (t *Tree) borrowFromLeft(parent *node, i int, left, child *node) {
	if child.kind == kindLeaf {
		k := left.keys[len(left.keys)-1]
		v := left.vals[len(left.vals)-1]
		left.keys = left.keys[:len(left.keys)-1]
		left.vals = left.vals[:len(left.vals)-1]
		child.keys = append([]uint64{k}, child.keys...)
		child.vals = append([]uint64{v}, child.vals...)
		parent.keys[i-1] = child.keys[0]
		return
	}
	// Internal: rotate through the parent separator.
	sep := parent.keys[i-1]
	k := left.keys[len(left.keys)-1]
	c := left.children[len(left.children)-1]
	left.keys = left.keys[:len(left.keys)-1]
	left.children = left.children[:len(left.children)-1]
	child.keys = append([]uint64{sep}, child.keys...)
	child.children = append([]seg.ObjectID{c}, child.children...)
	parent.keys[i-1] = k
}

// borrowFromRight moves the right sibling's first entry into child.
func (t *Tree) borrowFromRight(parent *node, i int, child, right *node) {
	if child.kind == kindLeaf {
		k := right.keys[0]
		v := right.vals[0]
		right.keys = right.keys[1:]
		right.vals = right.vals[1:]
		child.keys = append(child.keys, k)
		child.vals = append(child.vals, v)
		parent.keys[i] = right.keys[0]
		return
	}
	sep := parent.keys[i]
	k := right.keys[0]
	c := right.children[0]
	right.keys = right.keys[1:]
	right.children = right.children[1:]
	child.keys = append(child.keys, sep)
	child.children = append(child.children, c)
	parent.keys[i] = k
}

// mergeNodes folds src (right neighbour) into dst (left neighbour);
// sepIdx is the parent key separating them.
func (t *Tree) mergeNodes(parent *node, sepIdx int, dst, src *node) {
	if dst.kind == kindLeaf {
		dst.keys = append(dst.keys, src.keys...)
		dst.vals = append(dst.vals, src.vals...)
		dst.next = src.next
		return
	}
	dst.keys = append(dst.keys, parent.keys[sepIdx])
	dst.keys = append(dst.keys, src.keys...)
	dst.children = append(dst.children, src.children...)
}

// writeNodes persists pairs of (id, node).
func (t *Tree) writeNodes(args ...any) error {
	for i := 0; i+1 < len(args); i += 2 {
		if err := t.writeNode(args[i].(seg.ObjectID), args[i+1].(*node)); err != nil {
			return err
		}
	}
	return nil
}

// Scan visits all pairs with from <= key < to in order; fn returning
// false stops the scan early.
func (t *Tree) Scan(from, to uint64, fn func(key, val uint64) bool) error {
	// Descend to the leaf containing from.
	t.beginOp()
	id := t.root
	for {
		n, err := t.readNodeCounted(id)
		if err != nil {
			return err
		}
		if n.kind == kindLeaf {
			for {
				for i, k := range n.keys {
					if k < from {
						continue
					}
					if k >= to {
						return nil
					}
					if !fn(k, n.vals[i]) {
						return nil
					}
				}
				if n.next.IsZero() {
					return nil
				}
				// n.next is evaluated before the call, so releasing the
				// current leaf's slot for the next one to reuse is safe.
				t.releaseNode()
				n, err = t.readNodeCounted(n.next)
				if err != nil {
					return err
				}
			}
		}
		i := search(n.keys, from)
		if i < len(n.keys) && n.keys[i] == from {
			i++
		}
		id = n.children[i]
		t.releaseNode() // parent is dead; let the child reuse its slot
	}
}

// Path returns the node ids visited looking up key (root to leaf); it
// powers the client-side traversal experiment (one RTT per element).
func (t *Tree) Path(key uint64) ([]seg.ObjectID, error) {
	t.beginOp()
	var path []seg.ObjectID
	id := t.root
	for {
		path = append(path, id)
		n, err := t.readNodeCounted(id)
		if err != nil {
			return nil, err
		}
		if n.kind == kindLeaf {
			return path, nil
		}
		i := search(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			i++
		}
		id = n.children[i]
		t.releaseNode() // parent is dead; let the child reuse its slot
	}
}
