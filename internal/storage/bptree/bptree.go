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

// Node image layout, the one authority for every reader and writer of
// the encoded form (writeNode, image.decodeInto, the in-place search, and
// apps/chase's per-hop program): kind byte, LE16 key count, then per
// kind a fixed-offset LE64 key array and its payload array.
const (
	KindOff  = 0
	CountOff = 2

	LeafNextOff = 8                       // next-leaf object id (Hi, Lo)
	LeafKeysOff = LeafNextOff + 16        // LeafCap keys
	LeafValsOff = LeafKeysOff + LeafCap*8 // LeafCap values
	IntKeysOff  = 8                       // IntCap keys
	IntKidsOff  = IntKeysOff + IntCap*8   // IntCap+1 child object ids (Hi, Lo)
)

// Both layouts fit one node: a negative constant does not convert.
const (
	_ = uint(NodeBytes - (LeafValsOff + LeafCap*8))
	_ = uint(NodeBytes - (IntKidsOff + (IntCap+1)*16))
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

	// Reused node-image scratch, the source of every node write. A leaf
	// edit copies the stored image in and patches it (stageLeaf); an
	// encode zeroes it first (writeNode). Either way the bytes past a
	// node's live entries are zero, so the two produce identical images.
	// Reads need no scratch: they borrow the stored image (borrowNode).
	// The tree is single-threaded.
	wbuf    []byte
	metaBuf [64]byte

	// viaDecode sends every leaf edit through decode → mutate →
	// writeNode, the form the image edits replaced. Only
	// TestImageWriteMatchesEncodeOracle sets it, on the oracle twin.
	viaDecode bool

	// arena holds decode targets for the nodes a structural change
	// rewrites: a leaf that splits, the parent of a child that split or
	// underflowed, and the children a rebalance borrows between or
	// merges. Everything else is searched, and leaves are edited, in the
	// encoded image. Slots are recycled at the start of every public
	// operation, so one operation's live nodes never alias; decoded nodes
	// are never cached across operations. Slot arrays carry
	// one-past-capacity headroom (decodeInto's capacity hints), which
	// only the split path's pre-split appends still use.
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
	t := &Tree{v: v, meta: metaID, prefix: metaID.Hi, nextLo: metaID.Lo + 1, durable: durable, height: 1, wbuf: make([]byte, NodeBytes)}
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
	t := &Tree{v: v, meta: metaID, prefix: metaID.Hi, wbuf: make([]byte, NodeBytes)}
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
	buf := t.wbuf
	clear(buf)
	buf[KindOff] = n.kind
	wire.PutLE16At(buf, CountOff, uint16(len(n.keys)))
	switch n.kind {
	case kindLeaf:
		wire.PutLE64At(buf, LeafNextOff, n.next.Hi)
		wire.PutLE64At(buf, LeafNextOff+8, n.next.Lo)
		for i, k := range n.keys {
			wire.PutLE64At(buf, LeafKeysOff+i*8, k)
		}
		for i, v := range n.vals {
			wire.PutLE64At(buf, LeafValsOff+i*8, v)
		}
	case kindInternal:
		for i, k := range n.keys {
			wire.PutLE64At(buf, IntKeysOff+i*8, k)
		}
		for i, c := range n.children {
			wire.PutLE64At(buf, IntKidsOff+i*16, c.Hi)
			wire.PutLE64At(buf, IntKidsOff+i*16+8, c.Lo)
		}
	default:
		return fmt.Errorf("%w: kind %d", ErrCorrupt, n.kind)
	}
	return t.writeImage(id)
}

// writeImage stores wbuf as node id: one whole-node write, whoever
// filled the buffer.
func (t *Tree) writeImage(id seg.ObjectID) error {
	t.NodesWritten++
	return t.v.WriteAt(id, 0, t.wbuf)
}

// stageLeaf copies a borrowed leaf image into wbuf to be patched there
// through the layout offsets and stored with writeImage: the write half
// of the block plane. What it saves over decode → mutate → writeNode is
// host work only (LeafCap word loads and stores each way around a
// 16-byte edit); the store sees the same calls with the same bytes.
func (t *Tree) stageLeaf(im image) []byte {
	copy(t.wbuf, im.buf[:NodeBytes])
	return t.wbuf
}

// putLeafSlot writes key → val at slot i of the leaf image im: over the
// value there when found, else shifting the tails of both arrays up one
// slot, which the caller has checked is free.
func (t *Tree) putLeafSlot(id seg.ObjectID, im image, i int, found bool, key, val uint64) error {
	buf := t.stageLeaf(im)
	if !found {
		copy(buf[LeafKeysOff+(i+1)*8:], buf[LeafKeysOff+i*8:LeafKeysOff+im.cnt*8])
		copy(buf[LeafValsOff+(i+1)*8:], buf[LeafValsOff+i*8:LeafValsOff+im.cnt*8])
		wire.PutLE64At(buf, LeafKeysOff+i*8, key)
		wire.PutLE16At(buf, CountOff, uint16(im.cnt+1))
	}
	wire.PutLE64At(buf, LeafValsOff+i*8, val)
	return t.writeImage(id)
}

// cutLeafSlot removes slot i of the leaf image im: the tails of both
// arrays shift down one slot and the slot they vacate is zeroed, as an
// encode of the shorter node would leave it.
func (t *Tree) cutLeafSlot(id seg.ObjectID, im image, i int) error {
	buf := t.stageLeaf(im)
	last := im.cnt - 1
	copy(buf[LeafKeysOff+i*8:], buf[LeafKeysOff+(i+1)*8:LeafKeysOff+im.cnt*8])
	copy(buf[LeafValsOff+i*8:], buf[LeafValsOff+(i+1)*8:LeafValsOff+im.cnt*8])
	wire.PutLE64At(buf, LeafKeysOff+last*8, 0)
	wire.PutLE64At(buf, LeafValsOff+last*8, 0)
	wire.PutLE16At(buf, CountOff, uint16(last))
	return t.writeImage(id)
}

// image is one encoded node, searched in place. It is valid only as
// long as the bytes it was borrowed from (see borrowNode).
type image struct {
	buf  []byte
	kind uint8
	cnt  int // keys
}

// header validates the fixed part of a node image: the one check every
// consumer of the encoded form goes through.
func header(buf []byte) (image, error) {
	if len(buf) < NodeBytes {
		return image{}, fmt.Errorf("%w: short node", ErrCorrupt)
	}
	im := image{buf: buf, kind: buf[KindOff], cnt: int(wire.LE16At(buf, CountOff))}
	switch im.kind {
	case kindLeaf:
		if im.cnt > LeafCap {
			return image{}, fmt.Errorf("%w: leaf count %d", ErrCorrupt, im.cnt)
		}
	case kindInternal:
		if im.cnt > IntCap {
			return image{}, fmt.Errorf("%w: internal count %d", ErrCorrupt, im.cnt)
		}
	default:
		return image{}, fmt.Errorf("%w: kind %d", ErrCorrupt, im.kind)
	}
	return im, nil
}

// search returns the index of the first key >= k.
func (im image) search(k uint64) int {
	keys := im.buf[IntKeysOff:]
	if im.kind == kindLeaf {
		keys = im.buf[LeafKeysOff:]
	}
	lo, hi := 0, im.cnt
	for lo < hi {
		mid := (lo + hi) / 2
		if wire.LE64At(keys, mid*8) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafKey, leafVal and leafNext read a leaf image.
func (im image) leafKey(i int) uint64 { return wire.LE64At(im.buf, LeafKeysOff+i*8) }
func (im image) leafVal(i int) uint64 { return wire.LE64At(im.buf, LeafValsOff+i*8) }
func (im image) leafNext() seg.ObjectID {
	return seg.ObjectID{Hi: wire.LE64At(im.buf, LeafNextOff), Lo: wire.LE64At(im.buf, LeafNextOff+8)}
}

// find returns the leaf slot holding k, if any.
func (im image) find(k uint64) (int, bool) {
	i := im.search(k)
	return i, i < im.cnt && im.leafKey(i) == k
}

// intKey and child read an internal image.
func (im image) intKey(i int) uint64 { return wire.LE64At(im.buf, IntKeysOff+i*8) }
func (im image) child(i int) seg.ObjectID {
	return seg.ObjectID{Hi: wire.LE64At(im.buf, IntKidsOff+i*16), Lo: wire.LE64At(im.buf, IntKidsOff+i*16+8)}
}

// route returns the index of the child of an internal image whose
// subtree covers k: keys equal to a separator live to its right.
func (im image) route(k uint64) int {
	i := im.search(k)
	if i < im.cnt && im.intKey(i) == k {
		i++
	}
	return i
}

// borrowNode reads node id as its stored image, counted as one node
// read. The image aliases the store: it stays valid until this node is
// next written or freed — writes to other nodes leave it alone, which
// is what lets insert and delete decode a parent only after its child
// has actually split or underflowed.
func (t *Tree) borrowNode(id seg.ObjectID) (image, error) {
	t.NodesRead++
	buf, err := t.v.Borrow(id, 0, NodeBytes, nil)
	if err != nil {
		return image{}, err
	}
	return header(buf)
}

// readNode reads node id decoded into an arena slot, for a caller about
// to modify it.
func (t *Tree) readNode(id seg.ObjectID) (*node, error) {
	im, err := t.borrowNode(id)
	if err != nil {
		return nil, err
	}
	return t.decode(im), nil
}

// decode parses a validated image into the next arena slot.
func (t *Tree) decode(im image) *node {
	n := t.arenaNode()
	im.decodeInto(n)
	return n
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

// decodeInto parses a validated image into n, reusing n's slice
// capacity.
func (im image) decodeInto(n *node) {
	n.kind = im.kind
	if im.kind == kindLeaf {
		n.next = im.leafNext()
		n.children = n.children[:0]
		n.keys = growU64(n.keys, im.cnt, LeafCap+1)
		n.vals = growU64(n.vals, im.cnt, LeafCap+1)
		for i := range n.keys {
			n.keys[i] = im.leafKey(i)
			n.vals[i] = im.leafVal(i)
		}
		return
	}
	n.next = seg.ObjectID{}
	n.vals = n.vals[:0]
	n.keys = growU64(n.keys, im.cnt, IntCap+1)
	for i := range n.keys {
		n.keys[i] = im.intKey(i)
	}
	n.children = growIDs(n.children, im.cnt+1, IntCap+2)
	for i := range n.children {
		n.children[i] = im.child(i)
	}
}

// DecodeNode parses a raw node image (exported for the client-side
// traversal, which receives node pages over RPC). Internal nodes
// return their children flattened to (Hi, Lo) word pairs.
func DecodeNode(buf []byte) (kind uint8, keys []uint64, valsOrChildren []uint64, next seg.ObjectID, err error) {
	im, err := header(buf)
	if err != nil {
		return 0, nil, nil, seg.ObjectID{}, err
	}
	if im.kind == kindLeaf {
		// One exact-size backing array for both slices; the capacity cap
		// keeps any later append to keys from crossing into the values.
		kv := make([]uint64, 2*im.cnt)
		keys, vals := kv[:im.cnt:im.cnt], kv[im.cnt:]
		for i := range keys {
			keys[i], vals[i] = im.leafKey(i), im.leafVal(i)
		}
		return im.kind, keys, vals, im.leafNext(), nil
	}
	keys = make([]uint64, im.cnt)
	for i := range keys {
		keys[i] = im.intKey(i)
	}
	flat := make([]uint64, 0, 2*(im.cnt+1))
	for i := 0; i <= im.cnt; i++ {
		c := im.child(i)
		flat = append(flat, c.Hi, c.Lo)
	}
	return im.kind, keys, flat, seg.ObjectID{}, nil
}

// Get returns the value for key.
func (t *Tree) Get(key uint64) (uint64, bool, error) {
	id := t.root
	for {
		im, err := t.borrowNode(id)
		if err != nil {
			return 0, false, err
		}
		if im.kind == kindLeaf {
			if i, ok := im.find(key); ok {
				return im.leafVal(i), true, nil
			}
			return 0, false, nil
		}
		id = im.child(im.route(key))
	}
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
// key and the new right sibling id. Only a leaf that splits, and an
// internal node whose child actually split, is decoded; any other leaf
// is edited in its image.
func (t *Tree) insert(id seg.ObjectID, key, val uint64) (uint64, seg.ObjectID, error) {
	im, err := t.borrowNode(id)
	if err != nil {
		return 0, seg.ObjectID{}, err
	}
	if im.kind == kindLeaf {
		i, found := im.find(key)
		if (found || im.cnt < LeafCap) && !t.viaDecode {
			return 0, seg.ObjectID{}, t.putLeafSlot(id, im, i, found, key, val)
		}
		// A full leaf taking a new key splits, on the decoded form (which
		// the oracle twin uses for every leaf edit, overwrites included).
		n := t.decode(im)
		if found {
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
	i := im.route(key)
	promoted, newChild, err := t.insert(im.child(i), key, val)
	if err != nil || newChild.IsZero() {
		return 0, seg.ObjectID{}, err
	}
	// The descent wrote only other nodes, so im still is this node.
	n := t.decode(im)
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
		im, rerr := t.borrowNode(t.root)
		if rerr != nil {
			return true, rerr
		}
		if im.kind != kindInternal || im.cnt != 0 {
			break
		}
		old := t.root
		t.root = im.child(0)
		t.height--
		t.metaDirty = true
		if ferr := t.v.Free(old); ferr != nil {
			return true, ferr
		}
	}
	return true, t.flushMeta()
}

// delete removes key under id. underflow reports whether the node at id
// fell below its minimum (the parent then rebalances it). The leaf is
// edited in its image; only an internal node whose child actually
// underflowed is decoded.
func (t *Tree) delete(id seg.ObjectID, key uint64) (found, underflow bool, err error) {
	im, err := t.borrowNode(id)
	if err != nil {
		return false, false, err
	}
	if im.kind == kindLeaf {
		i, ok := im.find(key)
		if !ok {
			return false, false, nil
		}
		if t.viaDecode {
			n := t.decode(im)
			n.keys = append(n.keys[:i], n.keys[i+1:]...)
			n.vals = append(n.vals[:i], n.vals[i+1:]...)
			err = t.writeNode(id, n)
		} else {
			err = t.cutLeafSlot(id, im, i)
		}
		if err != nil {
			return true, false, err
		}
		// An underflowed leaf is stored short all the same: the parent's
		// rebalance reads it back.
		return true, im.cnt-1 < leafMin, nil
	}
	i := im.route(key)
	found, childUnder, err := t.delete(im.child(i), key)
	if err != nil || !found || !childUnder {
		return found, false, err
	}
	// The descent wrote only other nodes, so im still is this node.
	n := t.decode(im)
	if err := t.rebalanceChild(id, n, i); err != nil {
		return true, false, err
	}
	return true, len(n.keys) < intMin, nil
}

// rebalanceChild fixes an underflowed child i of parent n (at parent
// id): borrow one entry from a richer sibling, or merge with a sibling
// when both are at minimum.
func (t *Tree) rebalanceChild(parentID seg.ObjectID, parent *node, i int) error {
	child, err := t.readNode(parent.children[i])
	if err != nil {
		return err
	}
	min := leafMin
	if child.kind == kindInternal {
		min = intMin
	}
	// Try the left sibling first, then the right.
	if i > 0 {
		left, err := t.readNode(parent.children[i-1])
		if err != nil {
			return err
		}
		if len(left.keys) > min {
			t.borrowFromLeft(parent, i, left, child)
			return t.writeNodes(nodeAt{parentID, parent}, nodeAt{parent.children[i-1], left}, nodeAt{parent.children[i], child})
		}
		// Merge child into left.
		t.mergeNodes(parent, i-1, left, child)
		if err := t.v.Free(parent.children[i]); err != nil {
			return err
		}
		parent.keys = append(parent.keys[:i-1], parent.keys[i:]...)
		parent.children = append(parent.children[:i], parent.children[i+1:]...)
		return t.writeNodes(nodeAt{parentID, parent}, nodeAt{parent.children[i-1], left})
	}
	right, err := t.readNode(parent.children[i+1])
	if err != nil {
		return err
	}
	if len(right.keys) > min {
		t.borrowFromRight(parent, i, child, right)
		return t.writeNodes(nodeAt{parentID, parent}, nodeAt{parent.children[i], child}, nodeAt{parent.children[i+1], right})
	}
	// Merge right into child.
	t.mergeNodes(parent, i, child, right)
	if err := t.v.Free(parent.children[i+1]); err != nil {
		return err
	}
	parent.keys = append(parent.keys[:i], parent.keys[i+1:]...)
	parent.children = append(parent.children[:i+1], parent.children[i+2:]...)
	return t.writeNodes(nodeAt{parentID, parent}, nodeAt{parent.children[i], child})
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

// nodeAt pairs a decoded node with the object id it is stored under.
type nodeAt struct {
	id seg.ObjectID
	n  *node
}

// writeNodes persists each node under its id, in order.
func (t *Tree) writeNodes(nodes ...nodeAt) error {
	for _, na := range nodes {
		if err := t.writeNode(na.id, na.n); err != nil {
			return err
		}
	}
	return nil
}

// Scan visits all pairs with from <= key < to in order; fn returning
// false stops the scan early. fn runs while the leaf's stored image is
// borrowed: it must not write to this tree.
func (t *Tree) Scan(from, to uint64, fn func(key, val uint64) bool) error {
	// Descend to the leaf containing from.
	id := t.root
	for {
		im, err := t.borrowNode(id)
		if err != nil {
			return err
		}
		if im.kind != kindLeaf {
			id = im.child(im.route(from))
			continue
		}
		for i := im.search(from); i < im.cnt; i++ {
			k := im.leafKey(i)
			if k >= to || !fn(k, im.leafVal(i)) {
				return nil
			}
		}
		if id = im.leafNext(); id.IsZero() {
			return nil
		}
	}
}

// Path returns the node ids visited looking up key (root to leaf); it
// powers the client-side traversal experiment (one RTT per element).
func (t *Tree) Path(key uint64) ([]seg.ObjectID, error) {
	var path []seg.ObjectID
	id := t.root
	for {
		path = append(path, id)
		im, err := t.borrowNode(id)
		if err != nil {
			return nil, err
		}
		if im.kind == kindLeaf {
			return path, nil
		}
		id = im.child(im.route(key))
	}
}
