// Package fabric models the reconfigurable FPGA device at the heart of the
// Hyperion DPU (a Xilinx Alveo U280 in the paper): clocked accelerator
// slots, AXI-Stream plumbing between them, and partial dynamic
// reconfiguration through the ICAP port.
//
// The model is deliberately at the architectural level, not the gate
// level. A slot runs a Bitstream, which declares resource usage and a
// pipeline shape (depth and initiation interval); the fabric then gives
// the paper's two key properties for free: spatial multiplexing (slots do
// not interfere) and deterministic per-item latency (depth × clock
// period) with throughput 1/II items per cycle.
package fabric

import (
	"errors"
	"fmt"

	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// Resource kinds on the fabric, with U280-like totals.
type Resources struct {
	LUTs int // lookup tables
	FFs  int // flip-flops
	BRAM int // block RAM tiles (36 Kb each)
	DSP  int // DSP48 slices
	URAM int // UltraRAM tiles
}

// U280Resources is the approximate resource inventory of an Alveo U280.
func U280Resources() Resources {
	return Resources{LUTs: 1_304_000, FFs: 2_607_000, BRAM: 2_016, DSP: 9_024, URAM: 960}
}

// Sub subtracts u from r, reporting whether r had enough of everything.
func (r Resources) Sub(u Resources) (Resources, bool) {
	out := Resources{r.LUTs - u.LUTs, r.FFs - u.FFs, r.BRAM - u.BRAM, r.DSP - u.DSP, r.URAM - u.URAM}
	ok := out.LUTs >= 0 && out.FFs >= 0 && out.BRAM >= 0 && out.DSP >= 0 && out.URAM >= 0
	return out, ok
}

// Add accumulates u into r.
func (r Resources) Add(u Resources) Resources {
	return Resources{r.LUTs + u.LUTs, r.FFs + u.FFs, r.BRAM + u.BRAM, r.DSP + u.DSP, r.URAM + u.URAM}
}

// Config describes a fabric instance.
type Config struct {
	Name            string
	ClockHz         int64     // fabric clock, e.g. 250e6
	Slots           int       // number of partially-reconfigurable slots
	Total           Resources // total device resources
	ICAPBytesPerSec int64     // ICAP configuration bandwidth (≈ 400 MB/s on UltraScale+)
	DRAMBytes       int64     // on-card DRAM capacity
	HBMBytes        int64     // on-card HBM capacity (0 if none)
}

// DefaultConfig returns a U280-like fabric: 250 MHz, 5 reconfigurable
// slots as drawn in Figure 2, 32 GiB DRAM + 8 GiB HBM, 400 MB/s ICAP.
func DefaultConfig() Config {
	return Config{
		Name:            "u280",
		ClockHz:         250_000_000,
		Slots:           5,
		Total:           U280Resources(),
		ICAPBytesPerSec: 400 << 20,
		DRAMBytes:       32 << 30,
		HBMBytes:        8 << 30,
	}
}

// Errors returned by fabric operations.
var (
	ErrSlotBusy       = errors.New("fabric: slot busy reconfiguring")
	ErrSlotEmpty      = errors.New("fabric: slot has no bitstream")
	ErrOverCapacity   = errors.New("fabric: bitstream exceeds remaining resources")
	ErrUnauthorized   = errors.New("fabric: bitstream not authorized for this fabric")
	ErrBadBitstream   = errors.New("fabric: malformed bitstream")
	ErrSlotOutOfRange = errors.New("fabric: slot index out of range")
)

// Bitstream is a compiled accelerator image. SizeBytes drives the partial
// reconfiguration time through the ICAP; Depth and II drive the runtime
// pipeline model; Process is the functional payload executed per item.
type Bitstream struct {
	Name      string
	SizeBytes int64
	Uses      Resources
	Depth     int // pipeline depth in cycles (latency)
	II        int // initiation interval in cycles (1 = fully pipelined)
	// AuthTag must match the fabric's expected tag; the paper's config
	// engine accepts only authorized, encrypted bitstreams over the
	// control port. We model the check, not the cryptography.
	AuthTag string
	// Process is invoked once per item that flows through the slot, after
	// the modeled pipeline latency has elapsed. in is the item; the
	// returned value is emitted downstream (nil drops the item).
	Process func(in any) any
}

// Validate checks structural invariants of a bitstream.
func (b *Bitstream) Validate() error {
	switch {
	case b == nil:
		return ErrBadBitstream
	case b.Name == "":
		return fmt.Errorf("%w: empty name", ErrBadBitstream)
	case b.SizeBytes <= 0:
		return fmt.Errorf("%w: non-positive size", ErrBadBitstream)
	case b.Depth <= 0:
		return fmt.Errorf("%w: non-positive pipeline depth", ErrBadBitstream)
	case b.II <= 0:
		return fmt.Errorf("%w: non-positive initiation interval", ErrBadBitstream)
	case b.Process == nil:
		return fmt.Errorf("%w: nil process function", ErrBadBitstream)
	}
	return nil
}

// SlotState is the lifecycle of a reconfigurable slot.
type SlotState int

const (
	SlotEmpty SlotState = iota
	SlotReconfiguring
	SlotActive
)

func (s SlotState) String() string {
	switch s {
	case SlotEmpty:
		return "empty"
	case SlotReconfiguring:
		return "reconfiguring"
	case SlotActive:
		return "active"
	}
	return "invalid"
}

// Slot is one partially-reconfigurable region.
type Slot struct {
	Index     int
	State     SlotState
	Image     *Bitstream
	LoadedAt  sim.Time
	busyUntil sim.Time // pipeline issue: next cycle an item may enter

	reconfigRef sim.EventRef // pending activation event while reconfiguring

	// completions carries the slot's in-flight items. An item completes
	// a pipeline depth after its issue, and issues only grow, so they
	// come due in order (a reconfiguration to a shallower image can put
	// one behind the tail; that one waits in the engine's heap).
	completions sim.Lane[submitCtx, *submitCtx]

	in  *Stream
	out *Stream

	Items  int64 // items processed
	Cycles int64 // busy cycles consumed
}

// Fabric is the device model.
type Fabric struct {
	cfg     Config
	eng     *sim.Engine
	slots   []*Slot
	free    Resources
	authTag string

	rec       *telemetry.Recorder
	slotNames []string // armed only: precomputed per-slot span names
	submits   sim.FreeList[submitCtx]

	Counters sim.CounterSet
}

// New creates a fabric bound to the simulation engine. authTag is the
// tag the runtime config engine requires on every bitstream.
func New(eng *sim.Engine, cfg Config, authTag string) *Fabric {
	if cfg.Slots <= 0 || cfg.ClockHz <= 0 || cfg.ICAPBytesPerSec <= 0 {
		panic("fabric: invalid config")
	}
	f := &Fabric{cfg: cfg, eng: eng, free: cfg.Total, authTag: authTag}
	for i := 0; i < cfg.Slots; i++ {
		f.slots = append(f.slots, &Slot{Index: i})
	}
	return f
}

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// SetRecorder arms the telemetry plane: one span per submitted item
// covering pipeline issue to completion, on a thread per slot. Span
// names are precomputed here so the armed hot path never concatenates
// strings; disarmed the hooks are pure nil checks.
func (f *Fabric) SetRecorder(rec *telemetry.Recorder) {
	f.rec = rec
	if rec != nil && f.slotNames == nil {
		for i := range f.slots {
			f.slotNames = append(f.slotNames, fmt.Sprintf("slot%d", i))
		}
	}
}

// CyclePeriod returns the duration of one fabric clock cycle.
func (f *Fabric) CyclePeriod() sim.Duration {
	return sim.Duration(int64(sim.Second) / f.cfg.ClockHz)
}

// Cycles converts a cycle count to a duration.
func (f *Fabric) Cycles(n int64) sim.Duration { return sim.Duration(n) * f.CyclePeriod() }

// FreeResources reports resources not claimed by loaded bitstreams.
func (f *Fabric) FreeResources() Resources { return f.free }

// Slot returns slot i.
func (f *Fabric) Slot(i int) (*Slot, error) {
	if i < 0 || i >= len(f.slots) {
		return nil, ErrSlotOutOfRange
	}
	return f.slots[i], nil
}

// Slots returns all slots.
func (f *Fabric) Slots() []*Slot { return f.slots }

// ReconfigTime returns how long the ICAP needs to write a bitstream of
// the given size: the paper's 10–100 ms partial-reconfiguration window
// corresponds to 4–40 MB images at 400 MB/s.
func (f *Fabric) ReconfigTime(sizeBytes int64) sim.Duration {
	return sim.Duration(float64(sizeBytes) / float64(f.cfg.ICAPBytesPerSec) * float64(sim.Second))
}

// LoadBitstream starts partial reconfiguration of slot i with image b.
// done (may be nil) fires when the slot becomes active. The slot is
// unusable while reconfiguring; other slots are unaffected (spatial
// isolation).
func (f *Fabric) LoadBitstream(i int, b *Bitstream, done func()) error {
	slot, err := f.Slot(i)
	if err != nil {
		return err
	}
	if slot.State == SlotReconfiguring {
		return ErrSlotBusy
	}
	if err := b.Validate(); err != nil {
		return err
	}
	if b.AuthTag != f.authTag {
		return ErrUnauthorized
	}
	// Release the old image's resources before claiming the new one.
	free := f.free
	if slot.Image != nil {
		free = free.Add(slot.Image.Uses)
	}
	rem, ok := free.Sub(b.Uses)
	if !ok {
		return ErrOverCapacity
	}
	f.free = rem
	old := slot.Image
	slot.Image = b
	slot.State = SlotReconfiguring
	_ = old
	f.Counters.Get("reconfigs").Add(1)
	slot.reconfigRef = f.eng.After(f.ReconfigTime(b.SizeBytes), "fabric.reconfig:"+b.Name, func() {
		slot.reconfigRef = sim.NoEvent
		slot.State = SlotActive
		slot.LoadedAt = f.eng.Now()
		slot.busyUntil = f.eng.Now()
		if done != nil {
			done()
		}
	})
	return nil
}

// Unload clears slot i immediately (tearing down a tenant).
func (f *Fabric) Unload(i int) error {
	slot, err := f.Slot(i)
	if err != nil {
		return err
	}
	if slot.State == SlotReconfiguring {
		return ErrSlotBusy
	}
	if slot.Image != nil {
		f.free = f.free.Add(slot.Image.Uses)
	}
	slot.Image = nil
	slot.State = SlotEmpty
	return nil
}

// Evict force-clears slot i immediately, even mid-reconfiguration — the
// fault plane's slot-kill primitive (an SEU scrub or PR-region fault;
// the graceful teardown path is Unload). A pending activation event is
// cancelled so the LoadBitstream done callback never fires, and the
// image's resources return to the pool. Items already issued into the
// pipeline still complete: each pins its image, exactly as with a
// reconfiguration started underneath them.
func (f *Fabric) Evict(i int) error {
	slot, err := f.Slot(i)
	if err != nil {
		return err
	}
	if slot.State == SlotReconfiguring {
		f.eng.Cancel(slot.reconfigRef)
		slot.reconfigRef = sim.NoEvent
	}
	if slot.Image != nil {
		f.free = f.free.Add(slot.Image.Uses)
	}
	slot.Image = nil
	slot.State = SlotEmpty
	f.Counters.Get("evictions").Add(1)
	return nil
}

// Submit pushes one item into slot i's pipeline. The result callback
// fires after the modeled pipeline latency with the value returned by the
// bitstream's Process function. Throughput is limited by the initiation
// interval: items entering faster than II cycles apart queue at the slot
// input (modeled by pushing busyUntil forward), exactly like a stalled
// AXIS upstream.
func (f *Fabric) Submit(i int, item any, result func(out any)) error {
	return f.SubmitSpan(i, item, 0, result)
}

// SubmitSpan is Submit with a request-scoped trace context: the span
// recorded for this item (when armed) is tagged with req so it joins
// the request's critical path.
func (f *Fabric) SubmitSpan(i int, item any, req telemetry.RequestID, result func(out any)) error {
	slot, err := f.Slot(i)
	if err != nil {
		return err
	}
	if slot.State != SlotActive || slot.Image == nil {
		return ErrSlotEmpty
	}
	now := f.eng.Now()
	issue := slot.busyUntil
	if issue < now {
		issue = now
	}
	iiDur := f.Cycles(int64(slot.Image.II))
	slot.busyUntil = issue.Add(iiDur)
	slot.Items++
	slot.Cycles += int64(slot.Image.II)
	complete := issue.Add(f.Cycles(int64(slot.Image.Depth)))
	sc, fresh := f.submits.Get()
	if fresh {
		sc.f = f
	}
	sc.img = slot.Image
	sc.i = i
	sc.item = item
	sc.req = req
	sc.issue = issue
	sc.result = result
	slot.completions.At(f.eng, complete, sc)
	return nil
}

// submitCtx carries one in-flight pipeline item to its completion, which
// it fires itself; instances cycle through the fabric's free list. The
// image is pinned per item, so a slot reconfigured mid-flight still
// completes with the old Process.
type submitCtx struct {
	f      *Fabric
	img    *Bitstream
	i      int
	item   any
	req    telemetry.RequestID
	issue  sim.Time
	result func(out any)
}

// Fire completes the item: Process runs, then the result callback.
func (sc *submitCtx) Fire() {
	f := sc.f
	out := sc.img.Process(sc.item)
	if f.rec != nil {
		f.rec.Span("fabric", f.slotNames[sc.i], sc.req, sc.issue, f.eng.Now())
	}
	result := sc.result
	sc.img, sc.item, sc.result = nil, nil, nil
	f.submits.Put(sc)
	if result != nil {
		result(out)
	}
}
