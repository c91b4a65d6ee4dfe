package seg

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ChunkBytes is the size of every chunk object of a ChunkList.
const ChunkBytes = 1 << 20

// Field offsets in a root block, and how many chunk ids fit after them.
const (
	rootBytes  = 4096
	rootFlags  = 4
	rootOwner  = 8
	rootNextLo = 16
	rootTail   = 24
	rootCount  = 32
	rootList   = 40
	maxChunks  = (rootBytes - rootList) / 16
)

var (
	// ErrCorrupt reports a root block Sync cannot have written.
	ErrCorrupt = errors.New("seg: corrupt chunk-list root")
	// ErrRootFull reports growth past what one root block can list.
	ErrRootFull = errors.New("seg: chunk list fills its root block")
)

// A ChunkList is a growable object: a 4 KiB root block naming a list of
// 1 MiB chunk objects, the persistent shape of kvssd's value log, txn's
// redo log and corfu's unit (DESIGN §5 "Growable objects: one root").
// The root's layout is decided here and nowhere else:
//
//	 0 u32 magic    the client's, so one client's root never opens as another's
//	 4 u32 flags    bit 0: the chunks are durable; the rest zero
//	 8 u64 owner    the client's one scalar (Owner)
//	16 u64 nextLo   next unused id under the root's Hi
//	24 u64 tail     append offset in the last chunk
//	32 u64 count    chunks listed
//	40 count × 16   chunk ids (ObjectID.EncodeTo), then zero to the end
//
// Single-threaded, like every structure on a SyncView.
type ChunkList struct {
	// Owner is the client's to read and set (kvssd's backend, txn's next
	// transaction id, corfu's entry size); the next Sync writes it.
	Owner uint64

	v       *SyncView
	root    ObjectID
	durable bool
	nextLo  uint64
	tail    int64
	n       int
	// img is the root block as last read or written: Grow keeps its list
	// current and Sync its scalars, so neither allocates.
	img []byte
	// synced is how many of img's ids the stored root lists, the rest
	// equal but the scalars; -1 before the first Sync writes all of img.
	synced int
}

// CreateChunkList allocates the root of an empty list and writes
// nothing until the first Sync. Ids start right after the root's.
func CreateChunkList(v *SyncView, root ObjectID, magic uint32, durable bool) (*ChunkList, error) {
	if _, err := v.Alloc(root, rootBytes, durable, HintAuto); err != nil {
		return nil, err
	}
	c := &ChunkList{v: v, root: root, durable: durable, nextLo: root.Lo + 1, img: make([]byte, rootBytes), synced: -1}
	binary.LittleEndian.PutUint32(c.img[0:], magic)
	if durable {
		binary.LittleEndian.PutUint32(c.img[rootFlags:], 1)
	}
	return c, nil
}

// OpenChunkList reads the root, one 4 KiB read, and answers ErrCorrupt
// unless it is exactly what a Sync under this magic can have written.
func OpenChunkList(v *SyncView, root ObjectID, magic uint32) (*ChunkList, error) {
	img, err := v.ReadAt(root, 0, rootBytes)
	if err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint32(img[0:]); got != magic {
		return nil, fmt.Errorf("%w: magic %#x, want %#x", ErrCorrupt, got, magic)
	}
	flags, count, tail := binary.LittleEndian.Uint32(img[rootFlags:]), binary.LittleEndian.Uint64(img[rootCount:]), binary.LittleEndian.Uint64(img[rootTail:])
	if flags > 1 || count > maxChunks || tail > ChunkBytes || count == 0 && tail != 0 {
		return nil, fmt.Errorf("%w: flags %#x, %d chunks (a root lists %d), tail %d", ErrCorrupt, flags, count, maxChunks, tail)
	}
	c := &ChunkList{
		Owner: binary.LittleEndian.Uint64(img[rootOwner:]),
		v:     v, root: root, durable: flags == 1,
		nextLo: binary.LittleEndian.Uint64(img[rootNextLo:]), tail: int64(tail), n: int(count),
		img: img, synced: -1,
	}
	// Grow only ever lists {root.Hi, nextLo++}: ids ascend between the
	// root's and nextLo.
	prev := root.Lo
	for i := 0; i < c.n; i++ {
		id := c.Chunk(i)
		if id.Hi != root.Hi || id.Lo <= prev || id.Lo >= c.nextLo {
			return nil, fmt.Errorf("%w: chunk %d is %v", ErrCorrupt, i, id)
		}
		prev = id.Lo
	}
	for _, b := range img[rootList+16*c.n:] {
		if b != 0 {
			return nil, fmt.Errorf("%w: bytes after %d chunks", ErrCorrupt, c.n)
		}
	}
	return c, nil
}

// NextID reserves span consecutive ids under the root's Hi and returns
// the first; kvssd parks its index's node ids in such a span.
func (c *ChunkList) NextID(span uint64) ObjectID {
	id := ObjectID{Hi: c.root.Hi, Lo: c.nextLo}
	c.nextLo += span
	return id
}

// Len is the number of chunks.
func (c *ChunkList) Len() int { return c.n }

// Chunk is the id of chunk i, 0 ≤ i < Len.
func (c *ChunkList) Chunk(i int) ObjectID { return DecodeID(c.img[rootList+16*i:]) }

// Tail is the append offset in the last chunk.
func (c *ChunkList) Tail() int64 { return c.tail }

// Grow allocates one more chunk and makes it the (empty) tail. The root
// is not written: the caller's Sync, or Append's, does that.
func (c *ChunkList) Grow() error {
	if c.n == maxChunks {
		return fmt.Errorf("%w: %d chunks", ErrRootFull, c.n)
	}
	id := c.NextID(1)
	if _, err := c.v.Alloc(id, ChunkBytes, c.durable, HintAuto); err != nil {
		return err
	}
	id.EncodeTo(c.img[rootList+16*c.n:])
	c.n++
	c.tail = 0
	return nil
}

// Sync rewrites the root block: one 4 KiB write as WriteAt charges it,
// patching into the stored root only the four scalars and the ids Grow
// added since the last Sync.
func (c *ChunkList) Sync() error {
	binary.LittleEndian.PutUint64(c.img[rootOwner:], c.Owner)
	binary.LittleEndian.PutUint64(c.img[rootNextLo:], c.nextLo)
	binary.LittleEndian.PutUint64(c.img[rootTail:], uint64(c.tail))
	binary.LittleEndian.PutUint64(c.img[rootCount:], uint64(c.n))
	return c.v.Edit(c.root, func(stored []byte) {
		if c.synced < 0 {
			copy(stored, c.img)
		} else {
			copy(stored[rootOwner:rootList], c.img[rootOwner:rootList])
			copy(stored[rootList+16*c.synced:], c.img[rootList+16*c.synced:rootList+16*c.n])
		}
		c.synced = c.n
	})
}

// Append writes rec at the tail, in a fresh chunk when the last cannot
// hold it, and returns where it landed. Record first, root second: a
// root never names bytes that were not written before it.
func (c *ChunkList) Append(rec []byte) (chunk int, off int64, err error) {
	if c.n == 0 || c.tail+int64(len(rec)) > ChunkBytes {
		if err := c.Grow(); err != nil {
			return 0, 0, err
		}
	}
	chunk, off = c.n-1, c.tail
	if err := c.v.WriteAt(c.Chunk(chunk), off, rec); err != nil {
		return 0, 0, err
	}
	c.tail += int64(len(rec))
	return chunk, off, c.Sync()
}
