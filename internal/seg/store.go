package seg

import (
	"errors"
	"fmt"

	"hyperion/internal/nvme"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// Location says where a segment's bytes live.
type Location uint8

const (
	// LocDRAM is on-card DRAM: fast, ephemeral.
	LocDRAM Location = iota
	// LocNVMe is flash: slower, durable, large.
	LocNVMe
)

func (l Location) String() string {
	if l == LocDRAM {
		return "dram"
	}
	return "nvme"
}

// Hint guides placement at allocation time (§2.1: "hints-based
// allocation should also be possible").
type Hint uint8

const (
	// HintAuto places by durability: durable → NVMe, ephemeral → DRAM
	// with NVMe spill.
	HintAuto Hint = iota
	// HintHot forces DRAM (performance-critical objects).
	HintHot
	// HintCold forces NVMe (capacity objects).
	HintCold
)

// Errors.
var (
	ErrExists    = errors.New("seg: object already exists")
	ErrNotFound  = errors.New("seg: object not found")
	ErrBounds    = errors.New("seg: access outside segment")
	ErrNoSpace   = errors.New("seg: out of space")
	ErrEphemeral = errors.New("seg: durable operation on DRAM segment")
	ErrBadTable  = errors.New("seg: corrupt segment table")
)

// Segment is one table entry.
type Segment struct {
	ID      ObjectID
	Size    int64
	Loc     Location
	Durable bool
	// Addr is the bus address: DRAM byte offset or NVMe byte offset
	// (device*devStride + lba*blockSize) depending on Loc.
	Addr int64
}

// Config shapes the store.
type Config struct {
	DRAMBytes       int64
	DRAMLatency     sim.Duration // fixed per-access latency
	DRAMBytesPerSec int64        // streaming bandwidth
	BlockSize       int          // NVMe block size
	// TableBlocks reserves this many blocks at LBA 0 of device 0 for
	// segment-table checkpoints.
	TableBlocks int64
	// CacheEntries sizes the segment-descriptor cache (the hardware
	// translation structure); 0 disables caching so every translation
	// pays a DRAM access.
	CacheEntries int
	// CheckpointEvery persists the table after this many mutations.
	CheckpointEvery int
}

// DefaultConfig matches the Hyperion card: 32 GiB DRAM at ~100 ns /
// 38 GB/s, 4 KiB blocks, 1024 table blocks, 1024-entry descriptor cache.
func DefaultConfig() Config {
	return Config{
		DRAMBytes:       32 << 30,
		DRAMLatency:     100 * sim.Nanosecond,
		DRAMBytesPerSec: 38_000_000_000,
		BlockSize:       4096,
		TableBlocks:     1024,
		CacheEntries:    1024,
		CheckpointEvery: 256,
	}
}

// Store is the single-level object store.
type Store struct {
	eng  *sim.Engine
	cfg  Config
	devs []*nvme.Host

	table  map[ObjectID]*Segment
	dram   *dramBacking
	dramAl *allocator
	nvmeAl []*allocator // per device, in blocks
	cache  *lruCache
	dirty  int
	rrNext int

	rec *telemetry.Recorder

	Counters sim.CounterSet
	// Lookups / CacheHits drive the E6 translation experiment.
	Lookups, CacheHits int64
}

// SetRecorder arms the telemetry plane: a latency sample per Lookup
// (0 on cache hits, one DRAM access on misses) plus cache-hit and
// queued-write counters. Disarmed (nil) the hooks are pure nil checks.
func (s *Store) SetRecorder(rec *telemetry.Recorder) { s.rec = rec }

// devStride separates per-device NVMe address spaces inside Segment.Addr.
const devStride = int64(1) << 44

// New creates a store over the given NVMe hosts. Device 0's first
// TableBlocks blocks are reserved for table checkpoints.
func New(eng *sim.Engine, cfg Config, devs []*nvme.Host) *Store {
	if len(devs) == 0 {
		panic("seg: need at least one NVMe device")
	}
	s := &Store{
		eng:    eng,
		cfg:    cfg,
		devs:   devs,
		table:  make(map[ObjectID]*Segment),
		dram:   newDRAMBacking(cfg.DRAMBytes),
		dramAl: newAllocator(cfg.DRAMBytes),
	}
	for i, d := range devs {
		blocks := d.DeviceBlocks()
		reserve := int64(0)
		if i == 0 {
			reserve = cfg.TableBlocks
		}
		al := newAllocator(blocks - reserve)
		al.base = reserve
		s.nvmeAl = append(s.nvmeAl, al)
	}
	if cfg.CacheEntries > 0 {
		s.cache = newLRU(cfg.CacheEntries)
	}
	return s
}

// Alloc creates a new segment.
func (s *Store) Alloc(id ObjectID, size int64, durable bool, hint Hint) (*Segment, error) {
	if id.IsZero() {
		return nil, fmt.Errorf("seg: zero object id")
	}
	if size <= 0 {
		return nil, fmt.Errorf("seg: non-positive size %d", size)
	}
	if _, ok := s.table[id]; ok {
		return nil, fmt.Errorf("%w: %v", ErrExists, id)
	}
	loc := LocNVMe
	switch hint {
	case HintHot:
		loc = LocDRAM
	case HintCold:
		loc = LocNVMe
	case HintAuto:
		if durable {
			loc = LocNVMe
		} else {
			loc = LocDRAM
		}
	}
	if durable && loc == LocDRAM {
		return nil, fmt.Errorf("%w: durable segments must be on NVMe", ErrEphemeral)
	}
	sg := &Segment{ID: id, Size: size, Loc: loc, Durable: durable}
	var err error
	if loc == LocDRAM {
		sg.Addr, err = s.dramAl.alloc(size)
		if err != nil && hint == HintAuto {
			// Spill ephemeral segments to NVMe when DRAM is full.
			loc = LocNVMe
		} else if err != nil {
			return nil, err
		}
	}
	if loc == LocNVMe {
		sg.Loc = LocNVMe
		dev, lba, aerr := s.allocNVMe(size)
		if aerr != nil {
			return nil, aerr
		}
		sg.Addr = int64(dev)*devStride + lba*int64(s.cfg.BlockSize)
	}
	s.table[id] = sg
	s.mutated()
	s.Counters.Get("allocs").Add(1)
	return sg, nil
}

func (s *Store) allocNVMe(size int64) (int, int64, error) {
	blocks := (size + int64(s.cfg.BlockSize) - 1) / int64(s.cfg.BlockSize)
	// Round-robin across devices, skipping ones without room, so load
	// and capacity spread evenly over the four SSDs.
	for try := 0; try < len(s.nvmeAl); try++ {
		dev := (s.rrNext + try) % len(s.nvmeAl)
		if lba, err := s.nvmeAl[dev].alloc(blocks); err == nil {
			s.rrNext = (dev + 1) % len(s.nvmeAl)
			return dev, lba, nil
		}
	}
	return 0, 0, ErrNoSpace
}

// Free releases a segment.
func (s *Store) Free(id ObjectID) error {
	sg, ok := s.table[id]
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	if sg.Loc == LocDRAM {
		s.dramAl.release(sg.Addr, sg.Size)
	} else {
		dev, lba := s.split(sg.Addr)
		blocks := (sg.Size + int64(s.cfg.BlockSize) - 1) / int64(s.cfg.BlockSize)
		s.nvmeAl[dev].release(lba, blocks)
	}
	delete(s.table, id)
	if s.cache != nil {
		s.cache.remove(id)
	}
	s.mutated()
	return nil
}

func (s *Store) split(addr int64) (dev int, lba int64) {
	dev = int(addr / devStride)
	lba = (addr % devStride) / int64(s.cfg.BlockSize)
	return
}

// Lookup translates an object id to its segment entry, charging the
// translation cost: a cache hit is free (combinational), a miss costs
// one DRAM access to the in-memory table.
func (s *Store) Lookup(id ObjectID) (*Segment, sim.Duration, error) {
	s.Lookups++
	// The cache stores the descriptor pointer itself, so a hit resolves
	// in one index probe; Free removes entries, and table pointers are
	// stable for an object's lifetime, so a cached pointer never dangles.
	if s.cache != nil {
		if sg, ok := s.cache.get(id); ok {
			s.CacheHits++
			if s.rec != nil {
				s.rec.Observe("seg", "lookup", 0)
				s.rec.Count("seg", "cache_hits", 1)
			}
			return sg, 0, nil
		}
	}
	// Every remaining path pays one DRAM access to walk the table.
	if s.rec != nil {
		s.rec.Observe("seg", "lookup", s.cfg.DRAMLatency)
	}
	sg, ok := s.table[id]
	if !ok {
		return nil, s.cfg.DRAMLatency, fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	if s.cache != nil {
		s.cache.put(id, sg)
	}
	return sg, s.cfg.DRAMLatency, nil
}

// Stat returns the segment entry without charging translation cost
// (control-plane use).
func (s *Store) Stat(id ObjectID) (*Segment, error) {
	sg, ok := s.table[id]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	return sg, nil
}

// Len returns the number of live segments.
func (s *Store) Len() int { return len(s.table) }

// Write stores data at offset in the object through the queued device
// path. For NVMe segments, unaligned edges use read-modify-write. cb
// may be nil.
//
// Write is the store's one queued verb, kept whole for E8's fail2ban
// ban log: its sixteen-byte records' read-modify-writes queue behind
// each other on one flash channel, and that queueing is part of E8's
// event count and simulated trace time. SyncView.WriteAt leaves the
// same bytes but drops the queueing, which moves sim_events.
func (s *Store) Write(id ObjectID, off int64, data []byte, cb func(err error)) {
	sg, tcost, err := s.Lookup(id)
	if err != nil {
		s.failW(cb, tcost, err)
		return
	}
	length := int64(len(data))
	if off < 0 || off+length > sg.Size {
		s.failW(cb, tcost, fmt.Errorf("%w: [%d,%d) of %d", ErrBounds, off, off+length, sg.Size))
		return
	}
	s.Counters.Get("writes").Add(1)
	if s.rec != nil {
		s.rec.Count("seg", "writes", 1)
	}
	if sg.Loc == LocDRAM {
		d := tcost + s.dramTime(length)
		addr := sg.Addr + off
		buf := append([]byte(nil), data...)
		s.eng.After(d, "seg.write.dram", func() {
			s.dram.write(addr, buf)
			if cb != nil {
				cb(nil)
			}
		})
		return
	}
	dev, lba := s.split(sg.Addr)
	bs := int64(s.cfg.BlockSize)
	first := lba + off/bs
	last := lba + (off+length+bs-1)/bs
	skip := off % bs
	nblocks := int(last - first)
	buf := append([]byte(nil), data...)
	s.eng.After(tcost, "seg.write.xlate", func() {
		if skip == 0 && length%bs == 0 {
			// Aligned: write directly.
			s.devWrite(dev, first, padToBlocks(buf, int(bs)), cb)
			return
		}
		// RMW: read covering blocks, merge, write back.
		s.devRead(dev, first, nblocks, func(old []byte, st uint16) {
			if st != nvme.StatusOK {
				if cb != nil {
					cb(fmt.Errorf("seg: rmw read status %#x", st))
				}
				return
			}
			merged := append([]byte(nil), old...)
			copy(merged[skip:], buf)
			s.devWrite(dev, first, merged, cb)
		})
	})
}

func padToBlocks(b []byte, bs int) []byte {
	if len(b)%bs == 0 {
		return b
	}
	out := make([]byte, (len(b)/bs+1)*bs)
	copy(out, b)
	return out
}

// devRead reads blocks through the device's queue pair; cb's data is the
// device's lent buffer, valid until cb returns.
func (s *Store) devRead(dev int, lba int64, blocks int, cb func([]byte, uint16)) {
	if err := s.devs[dev].Read(0, lba, blocks, cb); err != nil {
		cb(nil, 0xFFFF)
	}
}

func (s *Store) devWrite(dev int, lba int64, data []byte, cb func(error)) {
	err := s.devs[dev].Write(0, lba, data, func(st uint16) {
		if cb == nil {
			return
		}
		if st != nvme.StatusOK {
			cb(fmt.Errorf("seg: nvme write status %#x", st))
			return
		}
		cb(nil)
	})
	if err != nil && cb != nil {
		cb(err)
	}
}

func (s *Store) dramTime(length int64) sim.Duration {
	return s.cfg.DRAMLatency + sim.Duration(float64(length)/float64(s.cfg.DRAMBytesPerSec)*float64(sim.Second))
}

func (s *Store) failW(cb func(error), d sim.Duration, err error) {
	if cb == nil {
		return
	}
	s.eng.After(d, "seg.err", func() { cb(err) })
}

func (s *Store) mutated() {
	s.dirty++
	if s.cfg.CheckpointEvery > 0 && s.dirty >= s.cfg.CheckpointEvery {
		_ = s.Checkpoint() // an oversized table is retried CheckpointEvery mutations later
	}
}
