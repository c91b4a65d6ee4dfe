// Package bptree implements a durable B+ tree over the single-level
// segment store. Every node is one segment-store object, so a lookup is
// a chain of object reads — exactly the pointer-chasing workload the
// paper's §2.4 wants to offload next to storage instead of paying one
// network RTT per hop.
package bptree

import (
	"encoding/binary"
	"errors"
	"fmt"

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

	// Reused encode scratch of writeNode, which zeroes it first, so every
	// stored image is zero past its live entries. A leaf edit patches the
	// stored image itself (seg.SyncView.Edit) and reads borrow it
	// (borrowNode): neither needs a scratch. The tree is single-threaded.
	wbuf    []byte
	metaBuf [64]byte

	// last is the latest Get's descent, replayed by an Insert of the
	// same key with no tree write since (replay).
	last descent

	// viaDecode sends every leaf edit through decode → mutate →
	// writeNode, the form the image edits replaced. Only
	// TestImageWriteMatchesEncodeOracle sets it, on the oracle twin.
	viaDecode bool

	// arena holds decode targets for the nodes an insert rewrites whole:
	// a full leaf taking a new key and the parent of a child that split.
	// Everything else is searched, and leaves are edited, in the
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

const maxReplay = 8

// descent is the path a Get read, root to leaf, and the slot it found
// in the leaf; depth 0 is nothing to replay: a Get whose key is new to
// a full leaf (that Insert splits) or in a tree over maxReplay levels.
type descent struct {
	path  [maxReplay]seg.ObjectID
	depth int
	key   uint64
	slot  int
	found bool
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
	if binary.LittleEndian.Uint32(buf[0:]) != metaMagic {
		return nil, fmt.Errorf("%w: bad meta magic", ErrCorrupt)
	}
	t.root = seg.ObjectID{Hi: binary.LittleEndian.Uint64(buf[8:]), Lo: binary.LittleEndian.Uint64(buf[16:])}
	t.height = int(binary.LittleEndian.Uint32(buf[24:]))
	t.nextLo = binary.LittleEndian.Uint64(buf[32:])
	t.durable = buf[40] == 1
	return t, nil
}

func (t *Tree) writeMeta() error {
	buf := t.metaBuf[:]
	binary.LittleEndian.PutUint32(buf[0:], metaMagic)
	binary.LittleEndian.PutUint64(buf[8:], t.root.Hi)
	binary.LittleEndian.PutUint64(buf[16:], t.root.Lo)
	binary.LittleEndian.PutUint32(buf[24:], uint32(t.height))
	binary.LittleEndian.PutUint64(buf[32:], t.nextLo)
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
	binary.LittleEndian.PutUint16(buf[CountOff:], uint16(len(n.keys)))
	switch n.kind {
	case kindLeaf:
		binary.LittleEndian.PutUint64(buf[LeafNextOff:], n.next.Hi)
		binary.LittleEndian.PutUint64(buf[LeafNextOff+8:], n.next.Lo)
		for i, k := range n.keys {
			binary.LittleEndian.PutUint64(buf[LeafKeysOff+i*8:], k)
		}
		for i, v := range n.vals {
			binary.LittleEndian.PutUint64(buf[LeafValsOff+i*8:], v)
		}
	case kindInternal:
		for i, k := range n.keys {
			binary.LittleEndian.PutUint64(buf[IntKeysOff+i*8:], k)
		}
		for i, c := range n.children {
			binary.LittleEndian.PutUint64(buf[IntKidsOff+i*16:], c.Hi)
			binary.LittleEndian.PutUint64(buf[IntKidsOff+i*16+8:], c.Lo)
		}
	default:
		return fmt.Errorf("%w: kind %d", ErrCorrupt, n.kind)
	}
	t.NodesWritten++
	return t.v.WriteAt(id, 0, buf)
}

// putLeafSlot writes key → val at slot i of leaf id in its stored
// image, charged as the whole-node write an encode ends in: over the
// value there when found, else shifting the tails of both arrays up one
// slot, which the caller has checked is free.
func (t *Tree) putLeafSlot(id seg.ObjectID, i int, found bool, key, val uint64) error {
	t.NodesWritten++
	return t.v.Edit(id, func(buf []byte) {
		if !found {
			cnt := int(binary.LittleEndian.Uint16(buf[CountOff:]))
			copy(buf[LeafKeysOff+(i+1)*8:], buf[LeafKeysOff+i*8:LeafKeysOff+cnt*8])
			copy(buf[LeafValsOff+(i+1)*8:], buf[LeafValsOff+i*8:LeafValsOff+cnt*8])
			binary.LittleEndian.PutUint64(buf[LeafKeysOff+i*8:], key)
			binary.LittleEndian.PutUint16(buf[CountOff:], uint16(cnt+1))
		}
		binary.LittleEndian.PutUint64(buf[LeafValsOff+i*8:], val)
	})
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
	im := image{buf: buf, kind: buf[KindOff], cnt: int(binary.LittleEndian.Uint16(buf[CountOff:]))}
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
		if binary.LittleEndian.Uint64(keys[mid*8:]) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafKey, leafVal and leafNext read a leaf image.
func (im image) leafKey(i int) uint64 { return binary.LittleEndian.Uint64(im.buf[LeafKeysOff+i*8:]) }
func (im image) leafVal(i int) uint64 { return binary.LittleEndian.Uint64(im.buf[LeafValsOff+i*8:]) }
func (im image) leafNext() seg.ObjectID {
	return seg.ObjectID{Hi: binary.LittleEndian.Uint64(im.buf[LeafNextOff:]), Lo: binary.LittleEndian.Uint64(im.buf[LeafNextOff+8:])}
}

// find returns the leaf slot holding k, if any.
func (im image) find(k uint64) (int, bool) {
	i := im.search(k)
	return i, i < im.cnt && im.leafKey(i) == k
}

// intKey and child read an internal image.
func (im image) intKey(i int) uint64 { return binary.LittleEndian.Uint64(im.buf[IntKeysOff+i*8:]) }
func (im image) child(i int) seg.ObjectID {
	return seg.ObjectID{Hi: binary.LittleEndian.Uint64(im.buf[IntKidsOff+i*16:]), Lo: binary.LittleEndian.Uint64(im.buf[IntKidsOff+i*16+8:])}
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
// is what lets insert decode a parent only after its child has actually
// split.
func (t *Tree) borrowNode(id seg.ObjectID) (image, error) {
	t.NodesRead++
	buf, err := t.v.Borrow(id, 0, NodeBytes, nil)
	if err != nil {
		return image{}, err
	}
	return header(buf)
}

// decode parses a validated image into the next arena slot.
func (t *Tree) decode(im image) *node {
	n := t.arenaNode()
	im.decodeInto(n)
	return n
}

// grow resizes s to n entries, reallocating with capHint headroom only
// when capacity is insufficient. Contents are unspecified.
func grow[T any](s []T, n, capHint int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, capHint))
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
		n.keys = grow(n.keys, im.cnt, LeafCap+1)
		n.vals = grow(n.vals, im.cnt, LeafCap+1)
		for i := range n.keys {
			n.keys[i] = im.leafKey(i)
			n.vals[i] = im.leafVal(i)
		}
		return
	}
	n.next = seg.ObjectID{}
	n.vals = n.vals[:0]
	n.keys = grow(n.keys, im.cnt, IntCap+1)
	for i := range n.keys {
		n.keys[i] = im.intKey(i)
	}
	n.children = grow(n.children, im.cnt+1, IntCap+2)
	for i := range n.children {
		n.children[i] = im.child(i)
	}
}

// Step takes one step of a descent for key through a raw node image,
// searched in place (for the client-side traversal, which receives
// node pages over RPC): an internal node yields the child whose subtree
// covers key; a leaf yields key's value, if found.
func Step(buf []byte, key uint64) (child seg.ObjectID, val uint64, leaf, found bool, err error) {
	im, err := header(buf)
	if err != nil {
		return seg.ObjectID{}, 0, false, false, err
	}
	if im.kind == kindLeaf {
		if i, ok := im.find(key); ok {
			return seg.ObjectID{}, im.leafVal(i), true, true, nil
		}
		return seg.ObjectID{}, 0, true, false, nil
	}
	return im.child(im.route(key)), 0, false, false, nil
}

// Get returns the value for key, and remembers its descent for an
// Insert of the same key to replay.
func (t *Tree) Get(key uint64) (uint64, bool, error) {
	d := &t.last
	d.depth = 0
	id := t.root
	for depth := 0; ; depth++ {
		im, err := t.borrowNode(id)
		if err != nil {
			return 0, false, err
		}
		if depth < maxReplay {
			d.path[depth] = id
		}
		if im.kind == kindLeaf {
			i, ok := im.find(key)
			if depth < maxReplay && (ok || im.cnt < LeafCap) {
				d.depth, d.key, d.slot, d.found = depth+1, key, i, ok
			}
			if ok {
				return im.leafVal(i), true, nil
			}
			return 0, false, nil
		}
		id = im.child(im.route(key))
	}
}

// Insert adds or replaces key → val.
func (t *Tree) Insert(key, val uint64) error {
	if d := &t.last; d.depth > 0 && d.key == key && !t.viaDecode {
		return t.replay(d, val)
	}
	t.last.depth = 0
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

// replay is Insert along the descent d of the Get just before it,
// whose images no tree write has changed: each node read is charged
// again in order (ChargeRead, the accounting behind borrowNode), and
// the leaf is edited at the slot the Get found.
func (t *Tree) replay(d *descent, val uint64) error {
	path := d.path[:d.depth]
	d.depth = 0
	for _, id := range path {
		t.NodesRead++
		if _, err := t.v.ChargeRead(id, 0, NodeBytes); err != nil {
			return err
		}
	}
	if err := t.putLeafSlot(path[len(path)-1], d.slot, d.found, d.key, val); err != nil {
		return err
	}
	return t.flushMeta()
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
			return 0, seg.ObjectID{}, t.putLeafSlot(id, i, found, key, val)
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
