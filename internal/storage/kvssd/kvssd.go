// Package kvssd exports the network-attached SSD abstraction the paper
// draws in Figure 2 as "KV-SSD": a byte-string key-value interface
// served directly by the DPU, with an index (B+ tree or LSM tree —
// the backend pair the KV experiments ablate) mapping key hashes to
// records in an append-only value log of segment objects.
package kvssd

import (
	"bytes"
	"errors"
	"fmt"
	"hyperion/internal/wire"

	"hyperion/internal/seg"
	"hyperion/internal/storage/bptree"
	"hyperion/internal/storage/lsm"
)

// Index abstracts the two backends.
type Index interface {
	Get(key uint64) (uint64, bool, error)
	Put(key, val uint64) error
}

// treeIndex adapts bptree.Tree.
type treeIndex struct{ t *bptree.Tree }

func (x treeIndex) Get(k uint64) (uint64, bool, error) { return x.t.Get(k) }
func (x treeIndex) Put(k, v uint64) error              { return x.t.Insert(k, v) }

// lsmIndex adapts lsm.Tree.
type lsmIndex struct{ t *lsm.Tree }

func (x lsmIndex) Get(k uint64) (uint64, bool, error) { return x.t.Get(k) }
func (x lsmIndex) Put(k, v uint64) error              { return x.t.Put(k, v) }

// Backend selects the index structure.
type Backend int

const (
	BackendBTree Backend = iota
	BackendLSM
)

func (b Backend) String() string {
	if b == BackendBTree {
		return "btree"
	}
	return "lsm"
}

// Log chunk geometry: 16-bit chunk index, offset within chunk, and
// record length packed into the index's uint64 value.
const (
	deletedSlot = ^uint64(0) // probe-chain preserving tombstone
	maxProbes   = 64
)

// Errors.
var (
	ErrKeyTooLarge = errors.New("kvssd: key too large")
	ErrValTooLarge = errors.New("kvssd: value too large")
	ErrFull        = errors.New("kvssd: probe chain exhausted")
	ErrCorrupt     = errors.New("kvssd: corrupt record")
)

const (
	maxKeyLen = 1 << 10
	maxValLen = 1 << 18
)

// KV is a key-value store instance.
type KV struct {
	v   *seg.SyncView
	idx Index
	// log is the value log, rooted at the meta object; its Owner word is
	// the backend.
	log *seg.ChunkList

	// Reused encode scratch; the store is single-threaded (DPU handlers
	// are run-to-completion) and the write path below copies. spill is
	// where a record straddling two device blocks is assembled — the one
	// read in fifteen that cannot be borrowed in place.
	recBuf []byte
	spill  []byte

	Puts, Gets, Deletes, Collisions int64
}

const metaMagic = 0x4b565331 // "KVS1"

// Create initializes a store. The meta object, index objects, and log
// chunks all share metaID.Hi as their id prefix.
func Create(v *seg.SyncView, metaID seg.ObjectID, backend Backend, durable bool) (*KV, error) {
	log, err := seg.CreateChunkList(v, metaID, metaMagic, durable)
	if err != nil {
		return nil, err
	}
	log.Owner = uint64(backend)
	kv := &KV{v: v, log: log}
	idxMeta := log.NextID(1 << 32) // generous id space for index nodes
	switch backend {
	case BackendBTree:
		var t *bptree.Tree
		t, err = bptree.Create(v, idxMeta, durable)
		kv.idx = treeIndex{t}
	case BackendLSM:
		var t *lsm.Tree
		t, err = lsm.Create(v, idxMeta, durable, 0)
		kv.idx = lsmIndex{t}
	default:
		return nil, fmt.Errorf("kvssd: unknown backend %d", backend)
	}
	if err != nil {
		return nil, err
	}
	if err := log.Grow(); err != nil {
		return nil, err
	}
	return kv, log.Sync()
}

// Open reopens an existing store.
func Open(v *seg.SyncView, metaID seg.ObjectID) (*KV, error) {
	log, err := seg.OpenChunkList(v, metaID, metaMagic)
	if err != nil {
		if errors.Is(err, seg.ErrCorrupt) {
			err = fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		return nil, err
	}
	kv := &KV{v: v, log: log}
	idxMeta := seg.ObjectID{Hi: metaID.Hi, Lo: metaID.Lo + 1}
	switch kv.Backend() {
	case BackendBTree:
		t, err := bptree.Open(v, idxMeta)
		if err != nil {
			return nil, err
		}
		kv.idx = treeIndex{t}
	case BackendLSM:
		t, err := lsm.Open(v, idxMeta)
		if err != nil {
			return nil, err
		}
		kv.idx = lsmIndex{t}
	default:
		return nil, fmt.Errorf("%w: backend %d", ErrCorrupt, log.Owner)
	}
	return kv, nil
}

// hash is FNV-1a over the key.
func hash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func pack(chunk int, off int64, recLen int) uint64 {
	return uint64(chunk)<<44 | uint64(off)<<20 | uint64(recLen)
}

func unpack(v uint64) (chunk int, off int64, recLen int) {
	return int(v >> 44), int64(v>>20) & (1<<24 - 1), int(v & (1<<20 - 1))
}

// appendRecord writes [keyLen u16][valLen u32][key][val] to the log.
func (kv *KV) appendRecord(key, val []byte) (uint64, error) {
	recLen := 6 + len(key) + len(val)
	if cap(kv.recBuf) < recLen {
		kv.recBuf = make([]byte, recLen)
	}
	rec := kv.recBuf[:recLen]
	wire.PutLE16At(rec, 0, uint16(len(key)))
	wire.PutLE32At(rec, 2, uint32(len(val)))
	copy(rec[6:], key)
	copy(rec[6+len(key):], val)
	chunk, off, err := kv.log.Append(rec)
	if err != nil {
		return 0, err
	}
	return pack(chunk, off, recLen), nil
}

// readRecord decodes the record at ref. The returned key and val are
// borrowed from the segment store (seg.SyncView.Borrow): read-only, and
// valid only until the log is next appended to or the next readRecord.
func (kv *KV) readRecord(ref uint64) (key, val []byte, err error) {
	chunk, off, recLen := unpack(ref)
	if chunk >= kv.log.Len() {
		return nil, nil, fmt.Errorf("%w: chunk %d", ErrCorrupt, chunk)
	}
	buf, err := kv.v.Borrow(kv.log.Chunk(chunk), off, int64(recLen), &kv.spill)
	if err != nil {
		return nil, nil, err
	}
	kl := int(wire.LE16At(buf, 0))
	vl := int(wire.LE32At(buf, 2))
	if 6+kl+vl != recLen {
		return nil, nil, fmt.Errorf("%w: lengths", ErrCorrupt)
	}
	return buf[6 : 6+kl], buf[6+kl : 6+kl+vl], nil
}

// Put inserts or replaces key → val.
func (kv *KV) Put(key, val []byte) error {
	if len(key) == 0 || len(key) > maxKeyLen {
		return ErrKeyTooLarge
	}
	if len(val) > maxValLen {
		return ErrValTooLarge
	}
	kv.Puts++
	h := hash(key)
	for i := uint64(0); i < maxProbes; i++ {
		slot := h + i
		ref, ok, err := kv.idx.Get(slot)
		if err != nil {
			return err
		}
		if ok && ref != deletedSlot {
			k, _, err := kv.readRecord(ref)
			if err != nil {
				return err
			}
			if !bytes.Equal(k, key) {
				kv.Collisions++
				continue // occupied by a colliding key
			}
		}
		// Empty, deleted, or same key: claim this slot.
		newRef, err := kv.appendRecord(key, val)
		if err != nil {
			return err
		}
		return kv.idx.Put(slot, newRef)
	}
	return ErrFull
}

// Get returns a fresh copy of the value for key.
func (kv *KV) Get(key []byte) ([]byte, bool, error) {
	return kv.GetAppend(nil, key)
}

// GetAppend appends the value for key to dst and returns the extended
// slice, so a caller that reuses one buffer pays no allocation per get.
// The result never aliases the store. When the key is absent, or on
// error, dst comes back unchanged.
func (kv *KV) GetAppend(dst, key []byte) ([]byte, bool, error) {
	kv.Gets++
	h := hash(key)
	for i := uint64(0); i < maxProbes; i++ {
		slot := h + i
		ref, ok, err := kv.idx.Get(slot)
		if err != nil {
			return dst, false, err
		}
		if !ok {
			return dst, false, nil // end of probe chain
		}
		if ref == deletedSlot {
			continue
		}
		k, v, err := kv.readRecord(ref)
		if err != nil {
			return dst, false, err
		}
		if bytes.Equal(k, key) {
			return append(dst, v...), true, nil
		}
		kv.Collisions++
	}
	return dst, false, nil
}

// Delete removes key, reporting whether it was present. The index slot
// keeps a marker so longer probe chains stay intact.
func (kv *KV) Delete(key []byte) (bool, error) {
	kv.Deletes++
	h := hash(key)
	for i := uint64(0); i < maxProbes; i++ {
		slot := h + i
		ref, ok, err := kv.idx.Get(slot)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
		if ref == deletedSlot {
			continue
		}
		k, _, err := kv.readRecord(ref)
		if err != nil {
			return false, err
		}
		if bytes.Equal(k, key) {
			return true, kv.idx.Put(slot, deletedSlot)
		}
	}
	return false, nil
}

// Backend returns which index backs this store.
func (kv *KV) Backend() Backend { return Backend(kv.log.Owner) }

// LogBytes reports the total value-log footprint.
func (kv *KV) LogBytes() int64 {
	if kv.log.Len() == 0 {
		return 0
	}
	return int64(kv.log.Len()-1)*seg.ChunkBytes + kv.log.Tail()
}

// FlushIndex persists buffered index state (LSM memtable). No-op for
// the B+ tree backend.
func (kv *KV) FlushIndex() error {
	if x, ok := kv.idx.(lsmIndex); ok {
		return x.t.Flush()
	}
	return nil
}
