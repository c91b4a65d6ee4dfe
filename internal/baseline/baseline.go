// Package baseline models the CPU-centric systems Hyperion is compared
// against: the pairwise accelerator-integration request paths of
// Table 1 (how many times the CPU touches a request, how many PCIe
// crossings and data copies it takes), a time-shared CPU service model
// for the predictability experiment, and a 4-level page-walk model for
// the translation-overhead experiment.
package baseline

import (
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
	if w.tlb.get(page) {
		w.TLBHits++
		return 0
	}
	var cost sim.Duration
	// Levels are keyed by progressively coarser prefixes (PML4, PDPT,
	// PD); the leaf PTE always costs a DRAM access.
	for _, shift := range walkShifts {
		key := page >> shift
		if w.pwc.get(key) {
			w.PWCHits++
			continue
		}
		cost += w.DRAMTime
		w.pwc.put(key)
	}
	cost += w.DRAMTime
	w.tlb.put(page)
	return cost
}

// walkShifts keys the three upper walk levels by progressively coarser
// page-number prefixes (PML4, PDPT, PD).
var walkShifts = [3]uint{27, 18, 9}

// lru is a small presence-only LRU: get and put are O(1) with no
// steady-state allocation.
type lru struct {
	cap   int
	idx   map[uint64]int32
	order sim.Recency[uint64]
}

func newLRU(cap int) *lru {
	return &lru{cap: cap, idx: make(map[uint64]int32, cap)}
}

func (c *lru) get(k uint64) bool {
	i, ok := c.idx[k]
	if ok {
		c.order.MoveBack(i)
	}
	return ok
}

func (c *lru) put(k uint64) {
	if c.get(k) {
		return
	}
	if len(c.idx) >= c.cap {
		v := c.order.Front()
		delete(c.idx, *c.order.At(v))
		c.order.Remove(v)
	}
	c.idx[k] = c.order.PushBack(k)
}
