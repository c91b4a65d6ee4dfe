package seg

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"slices"

	"hyperion/internal/wire"
)

// Segment-table checkpointing. The table serializes into the reserved
// control area at LBA 0 of device 0 with a checksummed header, so the
// store survives power loss: durable segments are recovered exactly;
// DRAM segments are dropped (their contents were ephemeral by contract).

const tableMagic = 0x48595054 // "HYPT"

// entryBytes is the on-disk size of one table entry:
// id(16) size(8) addr(8) flags(1) pad(7).
const entryBytes = 40

// Checkpoint persists the current table to the control area through
// the synchronous device path: the image is durable when Checkpoint
// returns, and no event is scheduled or cost charged (no experiment
// checkpoints).
func (s *Store) Checkpoint() error {
	s.dirty = 0
	durable := make([]*Segment, 0, len(s.table))
	for _, sg := range s.table {
		if sg.Loc == LocNVMe {
			durable = append(durable, sg)
		}
	}
	// Deterministic order for reproducible images.
	sortSegments(durable)

	bs := s.cfg.BlockSize
	need := 16 + len(durable)*entryBytes
	if maxBytes := int(s.cfg.TableBlocks) * bs; need > maxBytes {
		return fmt.Errorf("%w: table needs %d bytes, control area holds %d", ErrNoSpace, need, maxBytes)
	}
	s.Counters.Get("checkpoints").Add(1)
	s.devs[0].Device().WriteSync(0, encodeTable(durable, bs))
	return nil
}

// encodeTable serializes segs, already in id order: header, entries,
// zero padding to a whole block, checksum over all but the header.
func encodeTable(segs []*Segment, bs int) []byte {
	need := 16 + len(segs)*entryBytes
	buf := make([]byte, (need+bs-1)/bs*bs)
	wire.PutLE32At(buf, 0, tableMagic)
	wire.PutLE32At(buf, 4, uint32(len(segs)))
	off := 16
	for _, sg := range segs {
		sg.ID.EncodeTo(buf[off:])
		wire.PutLE64At(buf, off+16, uint64(sg.Size))
		wire.PutLE64At(buf, off+24, uint64(sg.Addr))
		if sg.Durable {
			buf[off+32] = 1
		}
		off += entryBytes
	}
	wire.PutLE32At(buf, 8, crc32.ChecksumIEEE(buf[16:]))
	return buf
}

func sortSegments(ss []*Segment) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].ID.Less(ss[j-1].ID); j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// Recover rebuilds a store's table from the control area of device 0,
// synchronously, and returns how many segments it installed. It must
// be called on a freshly-constructed store. NVMe allocators are
// replayed so subsequent allocations do not collide with recovered
// segments. The image is validated whole before any of it is installed:
// one that Checkpoint could not have written for this store's geometry
// yields ErrBadTable and leaves the table and allocators untouched.
func (s *Store) Recover() (int, error) {
	buf := make([]byte, s.cfg.TableBlocks*int64(s.cfg.BlockSize))
	s.devs[0].Device().ReadSyncInto(buf, 0, int(s.cfg.TableBlocks))
	segs, als, err := s.decodeTable(buf)
	if err != nil {
		return 0, err
	}
	s.nvmeAl = als
	for _, sg := range segs {
		s.table[sg.ID] = sg
	}
	return len(segs), nil
}

// decodeTable parses a checkpoint image and replays its segments into
// copies of the NVMe allocators. It accepts exactly what Checkpoint
// writes: ids strictly ascending, every segment a positive,
// block-aligned range inside free space of a device this store has,
// and nothing that would not encode back to the same bytes.
func (s *Store) decodeTable(buf []byte) ([]*Segment, []*allocator, error) {
	bad := func(format string, args ...any) ([]*Segment, []*allocator, error) {
		return nil, nil, fmt.Errorf("%w: %s", ErrBadTable, fmt.Sprintf(format, args...))
	}
	bs := int64(s.cfg.BlockSize)
	if wire.LE32At(buf, 0) != tableMagic {
		return bad("bad magic")
	}
	n := int(wire.LE32At(buf, 4))
	need := 16 + n*entryBytes
	if need > len(buf) {
		return bad("truncated table")
	}
	// Checksum covers the full padded region as written.
	padded := (need + int(bs) - 1) / int(bs) * int(bs)
	if crc32.ChecksumIEEE(buf[16:padded]) != wire.LE32At(buf, 8) {
		return bad("checksum mismatch")
	}
	als := make([]*allocator, len(s.nvmeAl))
	for i, a := range s.nvmeAl {
		c := *a
		c.holes = slices.Clone(a.holes)
		als[i] = &c
	}
	segs := make([]*Segment, 0, n)
	for i, off := 0, 16; i < n; i, off = i+1, off+entryBytes {
		sg := &Segment{
			ID:      DecodeID(buf[off:]),
			Size:    int64(wire.LE64At(buf, off+16)),
			Addr:    int64(wire.LE64At(buf, off+24)),
			Loc:     LocNVMe,
			Durable: buf[off+32]&1 != 0,
		}
		if i > 0 && !segs[i-1].ID.Less(sg.ID) {
			return bad("entry %d: ids not ascending", i)
		}
		if sg.Addr < 0 || sg.Addr%bs != 0 || sg.Addr/devStride >= int64(len(als)) {
			return bad("entry %d: address %#x unaligned or on no device", i, sg.Addr)
		}
		dev, lba := s.split(sg.Addr)
		// Bounding Size by the device first keeps the block count from
		// overflowing; claim then checks the range against free space.
		if sg.Size <= 0 || sg.Size > s.devs[dev].DeviceBlocks()*bs {
			return bad("entry %d: size %d", i, sg.Size)
		}
		if !als[dev].claim(lba, (sg.Size+bs-1)/bs) {
			return bad("entry %d: %d bytes at %#x are not free space", i, sg.Size, sg.Addr)
		}
		segs = append(segs, sg)
	}
	// A table has exactly one image, so set reserved bytes, unknown
	// flags or non-zero padding mean Checkpoint did not write this one.
	if !bytes.Equal(encodeTable(segs, int(bs)), buf[:padded]) {
		return bad("reserved bytes set")
	}
	return segs, als, nil
}

// claim removes [addr, addr+n) from the free list during recovery and
// reports whether the whole range was free.
func (a *allocator) claim(addr, n int64) bool {
	addr -= a.base
	for i := range a.holes {
		h := a.holes[i]
		if addr >= h.addr && addr+n <= h.addr+h.size {
			// Split the hole around the claimed range.
			var repl []hole
			if addr > h.addr {
				repl = append(repl, hole{h.addr, addr - h.addr})
			}
			if addr+n < h.addr+h.size {
				repl = append(repl, hole{addr + n, h.addr + h.size - addr - n})
			}
			a.holes = append(a.holes[:i], append(repl, a.holes[i+1:]...)...)
			return true
		}
	}
	return false
}
