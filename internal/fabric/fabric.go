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
	ClockHz int64 // fabric clock, e.g. 250e6
}

// The U280's reconfigurable region: its resources are U280Resources.
const (
	slots           = 5         // partially-reconfigurable slots, as drawn in Figure 2
	icapBytesPerSec = 400 << 20 // ICAP configuration bandwidth (≈ 400 MB/s on UltraScale+)
)

// DefaultConfig returns a U280-like fabric: 250 MHz.
func DefaultConfig() Config {
	return Config{ClockHz: 250_000_000}
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
	// the modeled pipeline latency has elapsed. in is the item's *Work
	// (a nil *Work for an item submitted without one), which Process
	// reads and fills in place; its return value is not used.
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
}

// New creates a fabric bound to the simulation engine. authTag is the
// tag the runtime config engine requires on every bitstream.
func New(eng *sim.Engine, cfg Config, authTag string) *Fabric {
	if cfg.ClockHz <= 0 {
		panic("fabric: invalid config")
	}
	f := &Fabric{cfg: cfg, eng: eng, free: U280Resources(), authTag: authTag}
	for i := 0; i < slots; i++ {
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
	return sim.Duration(float64(sizeBytes) / float64(icapBytesPerSec) * float64(sim.Second))
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
	slot.Image = b
	slot.State = SlotReconfiguring
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
	return nil
}

// Work is one item's in-place pipeline context. The caller owns it and
// keeps it alive until its Completer hears it: the slot's image reads
// and may rewrite Ctx in place and fills Ret and Err, which the fabric
// clears just before the image runs. Passing a pointer through
// Bitstream.Process boxes nothing, so an item allocates nothing.
type Work struct {
	Ctx []byte // the item's context (a packet header, a tree node)
	Ret uint64 // the image's result (an eBPF program's r0)
	Err error  // the image's runtime fault (verified programs never fault)
}

// Completer hears an item leave its slot's pipeline. A pooled context
// that submits items implements it and passes itself to Submit, so an
// item binds no callback.
type Completer interface{ Processed(w *Work) }

// Submit pushes one item into slot i's pipeline. After the modeled
// pipeline latency the bitstream's Process runs on w and done (which
// may be nil) hears it. Throughput is limited by the initiation
// interval: items entering faster than II cycles apart queue at the
// slot input (modeled by pushing busyUntil forward), exactly like a
// stalled AXIS upstream.
func (f *Fabric) Submit(i int, w *Work, done Completer) error {
	return f.SubmitSpan(i, w, 0, done)
}

// SubmitSpan is Submit with a request-scoped trace context: the span
// recorded for this item (when armed) is tagged with req so it joins
// the request's critical path.
func (f *Fabric) SubmitSpan(i int, w *Work, req telemetry.RequestID, done Completer) error {
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
	sc.w = w
	sc.req = req
	sc.issue = issue
	sc.done = done
	slot.completions.At(f.eng, complete, sc)
	return nil
}

// submitCtx carries one in-flight pipeline item to its completion, which
// it fires itself; instances cycle through the fabric's free list. The
// image is pinned per item, so a slot reconfigured mid-flight still
// completes with the old Process.
type submitCtx struct {
	f     *Fabric
	img   *Bitstream
	i     int
	w     *Work
	req   telemetry.RequestID
	issue sim.Time
	done  Completer
}

// Fire completes the item: Process runs on its Work, then its Completer
// hears it.
func (sc *submitCtx) Fire() {
	f, w := sc.f, sc.w
	if w != nil {
		w.Ret, w.Err = 0, nil
	}
	sc.img.Process(w)
	if f.rec != nil {
		f.rec.Span("fabric", f.slotNames[sc.i], sc.req, sc.issue, f.eng.Now())
	}
	done := sc.done
	sc.img, sc.w, sc.done = nil, nil, nil
	f.submits.Put(sc)
	if done != nil {
		done.Processed(w)
	}
}
