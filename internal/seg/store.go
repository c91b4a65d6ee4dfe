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

// Segment is one table entry: a segment descriptor.
type Segment struct {
	ID      ObjectID
	Size    int64
	Loc     Location
	Durable bool
	// Addr is the bus address: DRAM byte offset or NVMe byte offset
	// (device*devStride + lba*blockSize) depending on Loc.
	Addr int64
	// cached is the descriptor's node in the descriptor cache's recency
	// order, 0 while it is not cached.
	cached int32
}

// Config shapes the store.
type Config struct {
	DRAMBytes int64
	// TableBlocks reserves this many blocks at LBA 0 of device 0 for
	// segment-table checkpoints.
	TableBlocks int64
	// CheckpointEvery persists the table after this many mutations.
	CheckpointEvery int
}

// The card's DRAM and its segment-descriptor cache (the hardware
// translation structure).
const (
	dramLatency     = 100 * sim.Nanosecond // fixed per-access latency
	dramBytesPerSec = 38_000_000_000       // streaming bandwidth
	cacheEntries    = 1024
)

// DefaultConfig matches the Hyperion card: 32 GiB DRAM, 1024 table
// blocks.
func DefaultConfig() Config {
	return Config{
		DRAMBytes:       32 << 30,
		TableBlocks:     1024,
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

	table  oidIndex
	descs  sim.FreeList[Segment] // the descriptors' slab; never Put
	dram   dramBacking
	dramAl *allocator
	nvmeAl []*allocator // per device, in blocks
	dirty  int
	rrNext int

	// The descriptor cache threads cached descriptors, front = least
	// recently used; it holds at most cacheCap of them.
	cache    sim.Recency[*Segment]
	cacheLen int
	cacheCap int

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
		dramAl:     newAllocator(cfg.DRAMBytes, dramPageSize),
		cacheCap:   cacheEntries,
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
	if s.table.get(id) != nil {
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
	var addr int64
	var err error
	if loc == LocDRAM {
		addr, err = s.dramAl.alloc(size)
		if err != nil && hint == HintAuto {
			// Spill ephemeral segments to NVMe when DRAM is full.
			loc = LocNVMe
		} else if err != nil {
			return nil, err
		}
	}
	if loc == LocNVMe {
		dev, lba, aerr := s.allocNVMe(size)
		if aerr != nil {
			return nil, aerr
		}
		addr = int64(dev)*devStride + lba*int64(s.blockSize)
	}
	sg, _ := s.descs.Get()
	*sg = Segment{ID: id, Size: size, Loc: loc, Durable: durable, Addr: addr}
	s.table.set(id, sg)
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

// Free releases a segment. Its descriptor is not reused: a caller may
// still hold it, and its fields stay as they were.
func (s *Store) Free(id ObjectID) error {
	sg := s.table.get(id)
	if sg == nil {
		return fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	if sg.Loc == LocDRAM {
		s.dramAl.release(sg.Addr, sg.Size)
	} else {
		dev, lba := s.split(sg.Addr)
		blocks := (sg.Size + int64(s.blockSize) - 1) / int64(s.blockSize)
		s.nvmeAl[dev].release(lba, blocks)
	}
	s.table.del(id)
	if sg.cached != 0 {
		s.cache.Remove(sg.cached)
		sg.cached = 0
		s.cacheLen--
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
	// Whether a descriptor is cached is a field of the descriptor, so a
	// hit and a miss both resolve in one index probe.
	sg := s.table.get(id)
	if sg != nil && sg.cached != 0 {
		s.cache.MoveBack(sg.cached)
		s.CacheHits++
		if s.rec != nil {
			s.rec.Observe("seg", "lookup", 0)
			s.rec.Count("seg", "cache_hits", 1)
		}
		return sg, 0, nil
	}
	// Every remaining path pays one DRAM access to walk the table.
	if s.rec != nil {
		s.rec.Observe("seg", "lookup", dramLatency)
	}
	if sg == nil {
		return nil, dramLatency, fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	if s.cacheLen == s.cacheCap {
		victim := s.cache.Front()
		(*s.cache.At(victim)).cached = 0
		s.cache.Remove(victim)
	} else {
		s.cacheLen++
	}
	sg.cached = s.cache.PushBack(sg)
	return sg, dramLatency, nil
}

// Stat returns the segment entry without charging translation cost
// (control-plane use).
func (s *Store) Stat(id ObjectID) (*Segment, error) {
	sg := s.table.get(id)
	if sg == nil {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	return sg, nil
}

// Len returns the number of live segments.
func (s *Store) Len() int { return s.table.n }

func (s *Store) dramTime(length int64) sim.Duration {
	return dramLatency + sim.Duration(float64(length)/float64(dramBytesPerSec)*float64(sim.Second))
}

func (s *Store) mutated() {
	s.dirty++
	if s.cfg.CheckpointEvery > 0 && s.dirty >= s.cfg.CheckpointEvery {
		_ = s.Checkpoint() // an oversized table is retried CheckpointEvery mutations later
	}
}
