package seg

import (
	"errors"
	"fmt"
	"math/bits"

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
	DRAMBytes int64
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

// The card's DRAM.
const (
	dramLatency     = 100 * sim.Nanosecond // fixed per-access latency
	dramBytesPerSec = 38_000_000_000       // streaming bandwidth
)

// DefaultConfig matches the Hyperion card: 32 GiB DRAM, 1024 table
// blocks, 1024-entry descriptor cache.
func DefaultConfig() Config {
	return Config{
		DRAMBytes:       32 << 30,
		TableBlocks:     1024,
		CacheEntries:    1024,
		CheckpointEvery: 256,
	}
}

// Store is the single-level object store.
type Store struct {
	cfg  Config
	devs []*nvme.Host
	// The devices' block size, and it as a shift and a mask: the block
	// plane divides by none.
	blockSize  int
	blockShift uint
	blockMask  int64

	table  map[ObjectID]*Segment
	dram   dramBacking
	dramAl *allocator
	nvmeAl []*allocator // per device, in blocks
	cache  *lruCache
	dirty  int
	rrNext int

	rec *telemetry.Recorder

	// Lookups / CacheHits drive the E6 translation experiment.
	Lookups, CacheHits int64
}

// SetRecorder arms the telemetry plane: a latency sample per Lookup
// (0 on cache hits, one DRAM access on misses) plus a cache-hit
// counter. Disarmed (nil) the hooks are pure nil checks.
func (s *Store) SetRecorder(rec *telemetry.Recorder) { s.rec = rec }

// devStride separates per-device NVMe address spaces inside Segment.Addr.
const devStride = int64(1) << 44

// New creates a store over the given NVMe hosts. Device 0's first
// TableBlocks blocks are reserved for table checkpoints. The devices
// must share one block size, a power of two. The store
// schedules no event; the engine parameter stays because the frozen
// cmd/hyperbench probes call New with one.
func New(_ *sim.Engine, cfg Config, devs []*nvme.Host) *Store {
	if len(devs) == 0 {
		panic("seg: need at least one NVMe device")
	}
	bs := devs[0].BlockSize()
	if bs <= 0 || bs&(bs-1) != 0 {
		panic(fmt.Sprintf("seg: block size %d is not a power of two", bs))
	}
	s := &Store{
		cfg:        cfg,
		devs:       devs,
		blockSize:  bs,
		blockShift: uint(bits.TrailingZeros(uint(bs))),
		blockMask:  int64(bs - 1),
		table:      make(map[ObjectID]*Segment),
		dramAl:     newAllocator(cfg.DRAMBytes, dramPageSize),
	}
	for i, d := range devs {
		if d.BlockSize() != bs {
			panic(fmt.Sprintf("seg: device %d has %d-byte blocks, device 0 has %d", i, d.BlockSize(), bs))
		}
		blocks := d.DeviceBlocks()
		reserve := int64(0)
		if i == 0 {
			reserve = cfg.TableBlocks
		}
		al := newAllocator(blocks-reserve, 0)
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
		sg.Addr = int64(dev)*devStride + lba*int64(s.blockSize)
	}
	s.table[id] = sg
	s.mutated()
	return sg, nil
}

func (s *Store) allocNVMe(size int64) (int, int64, error) {
	blocks := (size + int64(s.blockSize) - 1) / int64(s.blockSize)
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
		blocks := (sg.Size + int64(s.blockSize) - 1) / int64(s.blockSize)
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
	dev = int(addr / devStride) // a constant power of two: a shift
	lba = addr % devStride >> s.blockShift
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
		s.rec.Observe("seg", "lookup", dramLatency)
	}
	sg, ok := s.table[id]
	if !ok {
		return nil, dramLatency, fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	if s.cache != nil {
		s.cache.put(id, sg)
	}
	return sg, dramLatency, nil
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

func (s *Store) dramTime(length int64) sim.Duration {
	return dramLatency + sim.Duration(float64(length)/float64(dramBytesPerSec)*float64(sim.Second))
}

func (s *Store) mutated() {
	s.dirty++
	if s.cfg.CheckpointEvery > 0 && s.dirty >= s.cfg.CheckpointEvery {
		_ = s.Checkpoint() // an oversized table is retried CheckpointEvery mutations later
	}
}
