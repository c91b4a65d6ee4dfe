// Package baseline models the CPU-centric systems Hyperion is compared
// against: the pairwise accelerator-integration request paths of
// Table 1 (how many times the CPU touches a request, how many PCIe
// crossings and data copies it takes), a time-shared CPU service model
// for the predictability experiment, and a 4-level page-walk model for
// the translation-overhead experiment.
package baseline

import (
	"math/bits"

	"hyperion/internal/sim"
)

// Stage is one hop in a request path.
type Stage struct {
	Name    string
	Latency sim.Duration
	CPU     bool // consumes host CPU
	PCIe    bool // crosses PCIe
	Copy    bool // copies the payload
}

// Path is a named end-to-end request path.
type Path struct {
	Model  string
	Lacks  string // what Table 1 says this integration is missing
	Stages []Stage
}

// Totals summarises a path.
type Totals struct {
	Latency    sim.Duration
	CPUTouches int
	PCIeHops   int
	Copies     int
}

// Totals computes the path summary.
func (p Path) Totals() Totals {
	var t Totals
	for _, s := range p.Stages {
		t.Latency += s.Latency
		if s.CPU {
			t.CPUTouches++
		}
		if s.PCIe {
			t.PCIeHops++
		}
		if s.Copy {
			t.Copies++
		}
	}
	return t
}

// Characteristic stage latencies (host software path costs are
// kernel-stack-scale; device hops are PCIe-scale).
const (
	nicToKernel   = 4 * sim.Microsecond  // interrupt + driver + stack
	kernelToUser  = 2 * sim.Microsecond  // syscall boundary + copy
	cpuDispatch   = 2 * sim.Microsecond  // request parsing/scheduling
	pcieHop       = 900 * sim.Nanosecond // DMA doorbell + transfer setup
	flashRead     = 70 * sim.Microsecond
	accelCompute  = 5 * sim.Microsecond
	fsTranslation = 6 * sim.Microsecond // file→block mapping on the CPU
)

// Table1Paths returns one request path per prior-art row of Table 1,
// each serving the same logical request: "network request → compute on
// accelerator → data on storage → response".
func Table1Paths() []Path {
	return []Path{
		{
			Model: "gpu+network",
			Lacks: "no storage integration",
			Stages: []Stage{
				{"nic→kernel", nicToKernel, true, false, true},
				{"kernel→gpu (GPUDirect)", pcieHop, false, true, false},
				{"gpu compute", accelCompute, false, false, false},
				// Storage is not integrated: bounce through the CPU.
				{"gpu→cpu", pcieHop, true, true, true},
				{"cpu fs translation", fsTranslation, true, false, false},
				{"cpu→ssd", pcieHop, false, true, false},
				{"flash read", flashRead, false, false, false},
				{"ssd→cpu", pcieHop, true, true, true},
				{"cpu→nic", kernelToUser, true, false, true},
			},
		},
		{
			Model: "gpu+storage",
			Lacks: "CPU-assisted storage translation, no networking",
			Stages: []Stage{
				{"nic→kernel", nicToKernel, true, false, true},
				{"kernel→user dispatch", kernelToUser, true, false, true},
				{"cpu fs translation", fsTranslation, true, false, false},
				{"cpu→ssd doorbell", pcieHop, false, true, false},
				{"flash read", flashRead, false, false, false},
				{"ssd→gpu (p2p dma)", pcieHop, false, true, false},
				{"gpu compute", accelCompute, false, false, false},
				{"gpu→cpu", pcieHop, true, true, true},
				{"cpu→nic", kernelToUser, true, false, true},
			},
		},
		{
			Model: "fpga+network",
			Lacks: "no storage integration",
			Stages: []Stage{
				{"nic→fpga inline", pcieHop, false, true, false},
				{"fpga compute", accelCompute, false, false, false},
				{"fpga→cpu", pcieHop, true, true, true},
				{"cpu fs translation", fsTranslation, true, false, false},
				{"cpu→ssd", pcieHop, false, true, false},
				{"flash read", flashRead, false, false, false},
				{"ssd→cpu", pcieHop, true, true, true},
				{"cpu→nic", kernelToUser, true, false, true},
			},
		},
		{
			Model: "storage+network",
			Lacks: "block-level protocols only, no file systems",
			Stages: []Stage{
				{"nic→kernel target", nicToKernel, true, false, true},
				{"cpu block translation", cpuDispatch, true, false, false},
				{"cpu→ssd", pcieHop, false, true, false},
				{"flash read", flashRead, false, false, false},
				{"ssd→cpu", pcieHop, true, true, true},
				// No compute integration: app-level processing on CPU.
				{"cpu compute", 4 * accelCompute, true, false, false},
				{"cpu→nic", kernelToUser, true, false, true},
			},
		},
		{
			Model: "storage+accelerator",
			Lacks: "CPU does FS/translation, no/limited network",
			Stages: []Stage{
				{"nic→kernel", nicToKernel, true, false, true},
				{"kernel→user dispatch", kernelToUser, true, false, true},
				{"cpu fs translation", fsTranslation, true, false, false},
				{"cpu→csd", pcieHop, false, true, false},
				{"flash read", flashRead, false, false, false},
				{"csd near-data compute", accelCompute, false, false, false},
				{"csd→cpu", pcieHop, true, true, true},
				{"cpu→nic", kernelToUser, true, false, true},
			},
		},
		{
			Model: "commercial dpu",
			Lacks: "designed around specialized CPU cores",
			Stages: []Stage{
				{"nic→dpu-cpu (ARM)", 2 * sim.Microsecond, true, false, true},
				{"dpu-cpu dispatch", cpuDispatch, true, false, false},
				{"dpu-cpu fs translation", fsTranslation, true, false, false},
				{"dpu→ssd", pcieHop, false, true, false},
				{"flash read", flashRead, false, false, false},
				{"ssd→dpu-cpu", pcieHop, true, true, true},
				{"dpu-cpu compute", 2 * accelCompute, true, false, false},
				{"dpu-cpu→nic", 2 * sim.Microsecond, true, false, true},
			},
		},
	}
}

// HyperionPath is the CPU-free unified path: network → fabric pipeline →
// NVMe → fabric → network, no host software, no bounce copies.
func HyperionPath() Path {
	return Path{
		Model: "hyperion",
		Lacks: "—",
		Stages: []Stage{
			{"qsfp→fabric demux", 500 * sim.Nanosecond, false, false, false},
			{"fabric pipeline", accelCompute, false, false, false},
			{"fabric→ssd (on-card pcie)", pcieHop, false, true, false},
			{"flash read", flashRead, false, false, false},
			{"ssd→fabric", pcieHop, false, true, false},
			{"fabric→qsfp", 500 * sim.Nanosecond, false, false, false},
		},
	}
}

// TimeSharedCPU models request service on a time-shared host: requests
// arrive and are served by W workers with context-switch overhead,
// scheduling delay jitter, and interference from a background load.
// It produces the latency distribution E5 compares against the fabric's
// deterministic pipelines.
type TimeSharedCPU struct {
	eng     *sim.Engine
	workers []sim.Time
	rr      int
	// CtxSwitch is charged per dispatch; Quantum jitter models timer
	// interrupts and other tenants stealing the core.
	CtxSwitch   sim.Duration
	JitterMax   sim.Duration
	Background  float64 // probability a request gets preempted once
	PreemptCost sim.Duration
}

// NewTimeSharedCPU builds a host model with w worker cores.
func NewTimeSharedCPU(eng *sim.Engine, w int) *TimeSharedCPU {
	return &TimeSharedCPU{
		eng:         eng,
		workers:     make([]sim.Time, w),
		CtxSwitch:   3 * sim.Microsecond,
		JitterMax:   20 * sim.Microsecond,
		Background:  0.15,
		PreemptCost: 100 * sim.Microsecond,
	}
}

// Serve schedules a request needing the given service time; done fires
// at completion.
func (c *TimeSharedCPU) Serve(service sim.Duration, done func()) {
	// Pick the next worker round-robin (kernel runqueue-ish).
	w := c.rr % len(c.workers)
	c.rr++
	now := c.eng.Now()
	start := c.workers[w]
	if start < now {
		start = now
	}
	total := c.CtxSwitch + service + c.eng.Rand().Duration(0, c.JitterMax)
	if c.eng.Rand().Float64() < c.Background {
		total += c.PreemptCost
	}
	c.workers[w] = start.Add(total)
	c.eng.At(c.workers[w], "cpu.serve", done)
}

// PageWalker models x86-style 4-level page translation with a TLB:
// a hit is free, a miss walks 4 levels; each level is a DRAM access
// unless it hits the small page-walk cache.
type PageWalker struct {
	tlb      *lru
	pwc      *lru
	DRAMTime sim.Duration

	Walks, TLBHits, PWCHits int64
}

// NewPageWalker builds a walker with the given TLB entries.
func NewPageWalker(tlbEntries int) *PageWalker {
	return &PageWalker{
		tlb:      newLRU(tlbEntries),
		pwc:      newLRU(64),
		DRAMTime: 100 * sim.Nanosecond,
	}
}

// Translate returns the modeled cost of translating the virtual page.
func (w *PageWalker) Translate(page uint64) sim.Duration {
	w.Walks++
	if w.tlb.touch(page) {
		w.TLBHits++
		return 0
	}
	var cost sim.Duration
	// The leaf PTE always costs a DRAM access; an upper level costs one
	// unless the page-walk cache holds it.
	for _, shift := range walkShifts {
		if w.pwc.touch(page >> shift) {
			w.PWCHits++
			continue
		}
		cost += w.DRAMTime
	}
	cost += w.DRAMTime
	return cost
}

// walkShifts keys the three upper walk levels by progressively coarser
// page-number prefixes (PML4, PDPT, PD). The levels share one PWC key
// space: the prefixes are not tagged with their level, so page>>27 and
// page>>18 are the same key for every page below 2^18 (and all three
// are for pages below 2^9), and a walk there fills fewer PWC entries
// and takes more PWC hits than a tagged cache would. E6's page-side
// columns are recorded with exactly this behaviour and its golden hash
// pins it; tagging the keys is a model change that moves that table,
// not a clean-up.
var walkShifts = [3]uint{27, 18, 9}

// lru is a small presence-only LRU of fixed capacity: touch is O(1)
// with no allocation once the cache has filled. Recency order belongs
// to sim.Recency; the key → node index is an open-addressed table with
// linear probing and backward-shift deletion, sized once at twice the
// capacity so it never grows (seg.oidIndex's scheme on 64-bit keys; see
// DESIGN §3 "Guide tables" for why the two are not one generic type).
type lru struct {
	cap   int
	n     int
	slots []lruSlot // len is a power of two, at least 2·cap
	shift uint      // 64 - log2(len(slots)): home keeps the hash's top bits
	order sim.Recency[uint64]
}

type lruSlot struct {
	key uint64
	ref int32 // node index; 0 marks an empty slot (node indexes are positive)
}

func newLRU(cap int) *lru {
	size := 2
	for size < 2*cap {
		size *= 2
	}
	return &lru{cap: cap, slots: make([]lruSlot, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

func (c *lru) home(k uint64) int {
	const phi = 0x9e3779b97f4a7c15
	return int((k * phi) >> c.shift)
}

// touch reports whether k was cached and leaves it the most recently
// used entry either way, evicting the least recently used one to make
// room.
func (c *lru) touch(k uint64) bool {
	mask := len(c.slots) - 1
	i := c.home(k)
	for ; c.slots[i].ref != 0; i = (i + 1) & mask {
		if c.slots[i].key == k {
			c.order.MoveBack(c.slots[i].ref)
			return true
		}
	}
	if c.n < c.cap {
		c.n++
		c.slots[i] = lruSlot{key: k, ref: c.order.PushBack(k)}
		return false
	}
	// Full: the victim's node takes the new key and moves to the back,
	// which is where Remove + PushBack would have put it. Unbinding the
	// victim can shift k's run, so the free slot is probed for again.
	v := c.order.Front()
	c.unbind(*c.order.At(v))
	*c.order.At(v) = k
	c.order.MoveBack(v)
	for i = c.home(k); c.slots[i].ref != 0; i = (i + 1) & mask {
	}
	c.slots[i] = lruSlot{key: k, ref: v}
	return false
}

// unbind removes k, which must be present, and closes the hole by
// moving up each later entry of the run whose home is not past it, so
// every remaining key stays reachable from its home.
func (c *lru) unbind(k uint64) {
	mask := len(c.slots) - 1
	i := c.home(k)
	for c.slots[i].key != k {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; c.slots[j].ref != 0; j = (j + 1) & mask {
		if (j-c.home(c.slots[j].key))&mask >= (j-i)&mask {
			c.slots[i] = c.slots[j]
			i = j
		}
	}
	c.slots[i] = lruSlot{}
}
