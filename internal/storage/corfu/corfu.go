// Package corfu implements a CORFU-style shared log (§2.4: "distributed/
// shared ordered logs ... pioneered by Boxwood", Balakrishnan et al.,
// NSDI'12): a sequencer hands out positions, and fixed-size entries
// stripe write-once across a set of flash storage units. On Hyperion the
// units are network-attached SSD DPUs; here each unit runs over the
// segment store and the RPC layer adds the network hops.
package corfu

import (
	"errors"
	"fmt"

	"hyperion/internal/seg"
	"hyperion/internal/wire"
)

// Entry states, persisted in a header byte per slot.
const (
	slotEmpty byte = iota
	slotWritten
	slotFilled // junk-filled hole
	slotTrimmed
)

// Errors.
var (
	ErrWritten   = errors.New("corfu: slot already written (write-once)")
	ErrTrimmed   = errors.New("corfu: position trimmed")
	ErrUnwritten = errors.New("corfu: position not yet written")
	ErrFilled    = errors.New("corfu: position filled (hole)")
	ErrTooLarge  = errors.New("corfu: entry exceeds fixed size")
	ErrCorrupt   = errors.New("corfu: corrupt unit")
)

// Unit is one write-once storage unit. Slots live in fixed-size cells
// inside chunk objects on the unit's segment store.
type Unit struct {
	v *seg.SyncView
	// chunks holds the cells; its Owner word is the entry size.
	chunks    *seg.ChunkList
	entrySize int
	cellBytes int
	perChunk  int
	// stateCache mirrors the persistent per-slot state byte so the
	// write-once check doesn't cost a flash read on the hot path (a
	// real unit keeps this in its FTL/controller SRAM). Slots of chunks
	// allocated by this instance — those from virginFrom on — are
	// known-empty; after a reopen the cache warms on demand.
	stateCache map[uint64]byte
	virginFrom int
	cell       []byte // Write's staging buffer, cellBytes long

	Writes, Reads, Fills int64
}

const unitMagic = 0x434f5246 // "CORF"
const maxEntrySize = seg.ChunkBytes / 4

// NewUnit creates a storage unit with the given fixed entry size.
func NewUnit(v *seg.SyncView, metaID seg.ObjectID, entrySize int, durable bool) (*Unit, error) {
	if entrySize <= 0 || entrySize > maxEntrySize {
		return nil, fmt.Errorf("corfu: bad entry size %d", entrySize)
	}
	chunks, err := seg.CreateChunkList(v, metaID, unitMagic, durable)
	if err != nil {
		return nil, err
	}
	chunks.Owner = uint64(entrySize)
	return newUnit(v, chunks), chunks.Sync()
}

// OpenUnit reloads a unit from its metadata.
func OpenUnit(v *seg.SyncView, metaID seg.ObjectID) (*Unit, error) {
	chunks, err := seg.OpenChunkList(v, metaID, unitMagic)
	if err != nil {
		if errors.Is(err, seg.ErrCorrupt) {
			err = fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		return nil, err
	}
	if chunks.Owner == 0 || chunks.Owner > maxEntrySize {
		return nil, fmt.Errorf("%w: entry size %d", ErrCorrupt, chunks.Owner)
	}
	return newUnit(v, chunks), nil
}

// newUnit sizes the cells from the entry size chunks carries.
func newUnit(v *seg.SyncView, chunks *seg.ChunkList) *Unit {
	entrySize := int(chunks.Owner)
	cellBytes := entrySize + 5 // state byte + length u32
	return &Unit{
		v: v, chunks: chunks, entrySize: entrySize,
		cellBytes: cellBytes, perChunk: seg.ChunkBytes / cellBytes,
		stateCache: make(map[uint64]byte), virginFrom: chunks.Len(),
	}
}

// locate returns the chunk object and byte offset of a slot, growing
// the chunk list as needed.
func (u *Unit) locate(slot uint64, grow bool) (seg.ObjectID, int64, error) {
	ci := int(slot / uint64(u.perChunk))
	for grow && ci >= u.chunks.Len() {
		if err := u.chunks.Grow(); err != nil {
			return seg.ObjectID{}, 0, err
		}
		if err := u.chunks.Sync(); err != nil {
			return seg.ObjectID{}, 0, err
		}
	}
	if ci >= u.chunks.Len() {
		return seg.ObjectID{}, 0, ErrUnwritten
	}
	off := int64(slot%uint64(u.perChunk)) * int64(u.cellBytes)
	return u.chunks.Chunk(ci), off, nil
}

func (u *Unit) state(slot uint64) (byte, error) {
	if st, ok := u.stateCache[slot]; ok {
		return st, nil
	}
	if ci := int(slot / uint64(u.perChunk)); ci >= u.virginFrom && ci < u.chunks.Len() {
		// Chunk allocated by this instance and slot never touched: empty.
		return slotEmpty, nil
	}
	id, off, err := u.locate(slot, false)
	if err == ErrUnwritten {
		return slotEmpty, nil
	}
	if err != nil {
		return 0, err
	}
	b, err := u.v.ReadAt(id, off, 1)
	if err != nil {
		return 0, err
	}
	u.stateCache[slot] = b[0]
	return b[0], nil
}

// Write stores data at slot, enforcing write-once semantics.
func (u *Unit) Write(slot uint64, data []byte) error {
	if len(data) > u.entrySize {
		return ErrTooLarge
	}
	st, err := u.state(slot)
	if err != nil {
		return err
	}
	switch st {
	case slotWritten, slotFilled:
		return ErrWritten
	case slotTrimmed:
		return ErrTrimmed
	}
	id, off, err := u.locate(slot, true)
	if err != nil {
		return err
	}
	// Write the full cell so block-aligned cells land as aligned device
	// writes (no read-modify-write). It is staged in the unit's scratch:
	// WriteAt copies into the store and keeps nothing.
	if u.cell == nil {
		u.cell = make([]byte, u.cellBytes)
	}
	cell := u.cell
	cell[0] = slotWritten
	wire.PutLE32At(cell, 1, uint32(len(data)))
	n := copy(cell[5:], data)
	clear(cell[5+n:])
	u.Writes++
	u.stateCache[slot] = slotWritten
	return u.v.WriteAt(id, off, cell)
}

// Read returns the entry at slot.
func (u *Unit) Read(slot uint64) ([]byte, error) {
	id, off, err := u.locate(slot, false)
	if err != nil {
		return nil, err
	}
	hdr, err := u.v.ReadAt(id, off, 5)
	if err != nil {
		return nil, err
	}
	switch hdr[0] {
	case slotEmpty:
		return nil, ErrUnwritten
	case slotFilled:
		return nil, ErrFilled
	case slotTrimmed:
		return nil, ErrTrimmed
	}
	n := int64(wire.LE32At(hdr, 1))
	u.Reads++
	data, err := u.v.ReadAt(id, off+5, n)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), data...), nil
}

// Fill marks slot as a junk hole (clients use it to skip a crashed
// appender's reserved position).
func (u *Unit) Fill(slot uint64) error {
	st, err := u.state(slot)
	if err != nil {
		return err
	}
	switch st {
	case slotWritten, slotFilled:
		return ErrWritten
	case slotTrimmed:
		return ErrTrimmed
	}
	id, off, err := u.locate(slot, true)
	if err != nil {
		return err
	}
	u.Fills++
	u.stateCache[slot] = slotFilled
	return u.v.WriteAt(id, off, []byte{slotFilled, 0, 0, 0, 0})
}

// Trim marks slot reclaimable.
func (u *Unit) Trim(slot uint64) error {
	id, off, err := u.locate(slot, true)
	if err != nil {
		return err
	}
	u.stateCache[slot] = slotTrimmed
	return u.v.WriteAt(id, off, []byte{slotTrimmed, 0, 0, 0, 0})
}

// Sequencer is the log's position server. In CORFU it is a soft-state
// network service; its counter recovers by probing the units.
type Sequencer struct {
	next uint64
	// Tokens handed out (for the bottleneck experiment).
	Issued int64
	// Batch lets one round-trip reserve several positions.
	Batch int
}

// Next reserves n consecutive positions, returning the first.
func (s *Sequencer) Next(n int) uint64 {
	if n < 1 {
		n = 1
	}
	p := s.next
	s.next += uint64(n)
	s.Issued += int64(n)
	return p
}

// Tail returns the next unwritten position.
func (s *Sequencer) Tail() uint64 { return s.next }

// Recover resets the counter from the units' state (max written slot).
func (s *Sequencer) Recover(l *Log) error {
	var tail uint64
	for p := uint64(0); ; p++ {
		st, err := l.units[p%uint64(len(l.units))].state(p / uint64(len(l.units)))
		if err != nil {
			return err
		}
		if st == slotEmpty {
			// Check a full stripe width ahead for holes written out of
			// order by concurrent appenders.
			empty := true
			for q := p + 1; q < p+uint64(len(l.units)); q++ {
				qs, err := l.units[q%uint64(len(l.units))].state(q / uint64(len(l.units)))
				if err != nil {
					return err
				}
				if qs != slotEmpty {
					empty = false
					break
				}
			}
			if empty {
				tail = p
				break
			}
		}
	}
	s.next = tail
	return nil
}

// Log is the client-side view over a sequencer and striped units.
type Log struct {
	Seq   *Sequencer
	units []*Unit
	// EntrySize is the fixed entry payload limit.
	EntrySize int
	trimmedTo uint64
}

// NewLog assembles a log. All units must share the entry size.
func NewLog(seq *Sequencer, units []*Unit) (*Log, error) {
	if len(units) == 0 {
		return nil, errors.New("corfu: need at least one unit")
	}
	es := units[0].entrySize
	for _, u := range units {
		if u.entrySize != es {
			return nil, errors.New("corfu: unit entry sizes differ")
		}
	}
	return &Log{Seq: seq, units: units, EntrySize: es}, nil
}

// unitFor maps a position to (unit, slot) by striping.
func (l *Log) unitFor(pos uint64) (*Unit, uint64) {
	n := uint64(len(l.units))
	return l.units[pos%n], pos / n
}

// Append reserves the next position and writes data there.
func (l *Log) Append(data []byte) (uint64, error) {
	if len(data) > l.EntrySize {
		return 0, ErrTooLarge
	}
	pos := l.Seq.Next(1)
	u, slot := l.unitFor(pos)
	if err := u.Write(slot, data); err != nil {
		return 0, err
	}
	return pos, nil
}

// Read returns the entry at pos.
func (l *Log) Read(pos uint64) ([]byte, error) {
	u, slot := l.unitFor(pos)
	return u.Read(slot)
}

// Fill plugs a hole at pos.
func (l *Log) Fill(pos uint64) error {
	u, slot := l.unitFor(pos)
	return u.Fill(slot)
}

// Trim marks everything below pos reclaimable.
func (l *Log) Trim(pos uint64) error {
	for p := l.trimmedTo; p < pos; p++ {
		u, slot := l.unitFor(p)
		if err := u.Trim(slot); err != nil {
			return err
		}
	}
	l.trimmedTo = pos
	return nil
}
