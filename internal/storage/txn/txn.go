// Package txn provides atomic multi-segment writes with a redo log —
// the "transactions" box in Figure 2 (after Beyond Block I/O's atomic
// writes): a transaction buffers writes, commits by hardening a
// checksummed redo record, applies in place, and marks the record
// applied. Recovery replays committed-but-unapplied records, so a crash
// between commit and apply never tears a multi-object update.
package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"hyperion/internal/seg"
)

// Errors.
var (
	ErrTxnClosed = errors.New("txn: transaction already committed or aborted")
	ErrTooLarge  = errors.New("txn: transaction exceeds log record size")
	ErrCorrupt   = errors.New("txn: corrupt log")
)

const (
	recMagic     = 0x54584e31 // "TXN1"
	appliedMagic = 0x54584e41 // "TXNA"
	maxRecBytes  = 256 << 10
)

// Manager owns the redo log.
type Manager struct {
	v *seg.SyncView
	// log is the redo log; its Owner word is the next transaction id.
	log *seg.ChunkList

	Commits, Aborts, Replays int64
}

const metaMagic = 0x54584d31 // "TXM1"

// NewManager creates a transaction manager with its log rooted at
// metaID (always durable: a volatile redo log is pointless).
func NewManager(v *seg.SyncView, metaID seg.ObjectID) (*Manager, error) {
	log, err := seg.CreateChunkList(v, metaID, metaMagic, true)
	if err != nil {
		return nil, err
	}
	log.Owner = 1
	if err := log.Grow(); err != nil {
		return nil, err
	}
	return &Manager{v: v, log: log}, log.Sync()
}

// Open reattaches to an existing log (call Recover afterwards).
func Open(v *seg.SyncView, metaID seg.ObjectID) (*Manager, error) {
	log, err := seg.OpenChunkList(v, metaID, metaMagic)
	if err != nil {
		if errors.Is(err, seg.ErrCorrupt) {
			err = fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		return nil, err
	}
	return &Manager{v: v, log: log}, nil
}

// markApplied appends the marker that retires txid's redo record.
func (m *Manager) markApplied(txid uint64) error {
	var mark [16]byte
	binary.LittleEndian.PutUint32(mark[:], appliedMagic)
	binary.LittleEndian.PutUint64(mark[4:], txid)
	_, _, err := m.log.Append(mark[:])
	return err
}

// write is one buffered mutation.
type write struct {
	id   seg.ObjectID
	off  int64
	data []byte
}

// Txn is one transaction. Not safe for concurrent use.
type Txn struct {
	m      *Manager
	id     uint64
	writes []write
	closed bool
}

// Begin starts a transaction.
func (m *Manager) Begin() *Txn {
	t := &Txn{m: m, id: m.log.Owner}
	m.log.Owner++
	return t
}

// Write buffers a mutation.
func (t *Txn) Write(id seg.ObjectID, off int64, data []byte) error {
	if t.closed {
		return ErrTxnClosed
	}
	t.writes = append(t.writes, write{id: id, off: off, data: append([]byte(nil), data...)})
	return nil
}

// Read observes current state overlaid with this transaction's buffered
// writes (read-your-writes).
func (t *Txn) Read(id seg.ObjectID, off, length int64) ([]byte, error) {
	if t.closed {
		return nil, ErrTxnClosed
	}
	base, err := t.m.v.ReadAt(id, off, length)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), base...)
	for _, w := range t.writes {
		if w.id != id {
			continue
		}
		// Overlap of [w.off, w.off+len) with [off, off+length).
		lo, hi := w.off, w.off+int64(len(w.data))
		if lo < off {
			lo = off
		}
		if hi > off+length {
			hi = off + length
		}
		if lo < hi {
			copy(out[lo-off:hi-off], w.data[lo-w.off:hi-w.off])
		}
	}
	return out, nil
}

// Abort discards the transaction.
func (t *Txn) Abort() {
	t.closed = true
	t.m.Aborts++
}

// Commit hardens the redo record, applies all writes, and marks the
// record applied. After Commit returns, all writes are durable and
// atomic with respect to crash recovery.
func (t *Txn) Commit() error {
	if err := t.CommitWithoutApply(); err != nil {
		return err
	}
	// Apply in place.
	for _, w := range t.writes {
		if err := t.m.v.WriteAt(w.id, w.off, w.data); err != nil {
			return err
		}
	}
	if err := t.m.markApplied(t.id); err != nil {
		return err
	}
	t.m.Commits++
	return nil
}

// CommitWithoutApply hardens the record but "crashes" before applying —
// Commit's first half, and the test hook for recovery.
func (t *Txn) CommitWithoutApply() error {
	if t.closed {
		return ErrTxnClosed
	}
	t.closed = true
	rec := encodeRecord(t.id, t.writes)
	if len(rec) > maxRecBytes {
		return ErrTooLarge
	}
	_, _, err := t.m.log.Append(rec)
	return err
}

func encodeRecord(txid uint64, writes []write) []byte {
	size := 20
	for _, w := range writes {
		size += 28 + len(w.data)
	}
	size += 4 // crc
	rec := make([]byte, size)
	binary.LittleEndian.PutUint32(rec[0:], recMagic)
	binary.LittleEndian.PutUint64(rec[4:], txid)
	binary.LittleEndian.PutUint32(rec[12:], uint32(len(writes)))
	binary.LittleEndian.PutUint32(rec[16:], uint32(size))
	off := 20
	for _, w := range writes {
		w.id.EncodeTo(rec[off:])
		binary.LittleEndian.PutUint64(rec[off+16:], uint64(w.off))
		binary.LittleEndian.PutUint32(rec[off+24:], uint32(len(w.data)))
		copy(rec[off+28:], w.data)
		off += 28 + len(w.data)
	}
	binary.LittleEndian.PutUint32(rec[off:], crc32.ChecksumIEEE(rec[:off]))
	return rec
}

// Recover replays committed-but-unapplied transactions. It returns the
// number of transactions replayed.
func (m *Manager) Recover() (int, error) {
	committed := make(map[uint64][]write)
	applied := make(map[uint64]bool)
	var order []uint64

	for ci := 0; ci < m.log.Len(); ci++ {
		chunk := m.log.Chunk(ci)
		limit := int64(seg.ChunkBytes)
		if ci == m.log.Len()-1 {
			limit = m.log.Tail()
		}
		off := int64(0)
		for off+4 <= limit {
			hdr, err := m.v.ReadAt(chunk, off, 4)
			if err != nil {
				return 0, err
			}
			magic := binary.LittleEndian.Uint32(hdr[0:])
			switch magic {
			case appliedMagic:
				buf, err := m.v.ReadAt(chunk, off, 16)
				if err != nil {
					return 0, err
				}
				applied[binary.LittleEndian.Uint64(buf[4:])] = true
				off += 16
			case recMagic:
				head, err := m.v.ReadAt(chunk, off, 20)
				if err != nil {
					return 0, err
				}
				txid := binary.LittleEndian.Uint64(head[4:])
				size := int64(binary.LittleEndian.Uint32(head[16:]))
				if size < 24 || off+size > limit {
					return 0, fmt.Errorf("%w: record size %d", ErrCorrupt, size)
				}
				rec, err := m.v.ReadAt(chunk, off, size)
				if err != nil {
					return 0, err
				}
				want := binary.LittleEndian.Uint32(rec[int(size-4):])
				if crc32.ChecksumIEEE(rec[:size-4]) != want {
					return 0, fmt.Errorf("%w: bad crc for txn %d", ErrCorrupt, txid)
				}
				nw := int(binary.LittleEndian.Uint32(rec[12:]))
				var ws []write
				o := 20
				for i := 0; i < nw; i++ {
					var w write
					w.id = seg.DecodeID(rec[o:])
					w.off = int64(binary.LittleEndian.Uint64(rec[o+16:]))
					n := int(binary.LittleEndian.Uint32(rec[o+24:]))
					w.data = append([]byte(nil), rec[o+28:o+28+n]...)
					ws = append(ws, w)
					o += 28 + n
				}
				committed[txid] = ws
				order = append(order, txid)
				off += size
			default:
				// End of valid records in this chunk.
				off = limit
			}
		}
	}
	replayed := 0
	for _, txid := range order {
		if applied[txid] {
			continue
		}
		for _, w := range committed[txid] {
			if err := m.v.WriteAt(w.id, w.off, w.data); err != nil {
				return replayed, err
			}
		}
		if err := m.markApplied(txid); err != nil {
			return replayed, err
		}
		replayed++
		m.Replays++
	}
	return replayed, nil
}
