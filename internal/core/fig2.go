package core

import (
	"fmt"

	"hyperion/internal/fabric"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// Fig2Trace times each stage of the Figure 2 datapath for one request:
// QSFP ingress → DEMUX/AXIS arbiter → eHDL accelerator slot → NVMe host
// IP core → PCIe x4 bridge → SSD flash → and back out.
type Fig2Trace struct {
	Arbiter  sim.Duration // DEMUX + AXIS serialization
	Pipeline sim.Duration // accelerator slot latency
	Storage  sim.Duration // NVMe command incl. on-card PCIe DMA
	Egress   sim.Duration // response serialization to QSFP
	Total    sim.Duration
}

// ProbeBitstream returns a small identity accelerator used by the
// Figure 2 probe (depth ≈ a realistic parse/steer pipeline).
func ProbeBitstream(authTag string) *fabric.Bitstream {
	return &fabric.Bitstream{
		Name:      "fig2-probe",
		SizeBytes: 4 << 20,
		Uses:      fabric.Resources{LUTs: 20000, FFs: 30000, BRAM: 16},
		Depth:     24,
		II:        1,
		AuthTag:   authTag,
		Process:   func(in any) any { return in },
	}
}

// probePayload is the static frame content every probe carries,
// pre-boxed so pushing it never allocates.
var probePayload any = []byte("probe")

// fig2Ctx carries one probe through the four-stage pipeline with
// prebound stage callbacks and its own reusable ingress stream (an
// idle AXIS stream is indistinguishable from a fresh one); instances
// cycle through the DPU's free list. data is the probe's own payload
// buffer: the device lends a read's bytes only until onRead returns and
// egress fires one event later, so onRead copies them here, and the
// capacity stays with the context across recycling.
type fig2Ctx struct {
	d      *DPU
	stream *fabric.Stream
	rec    *telemetry.Recorder // recorder the stream was last armed with

	slot, ssd int
	lba       int64
	blocks    int
	reply     func(tr Fig2Trace, data []byte, err error)

	span           telemetry.RequestID
	t0, t1, t2, t3 sim.Time
	tr             Fig2Trace
	data           []byte

	sinkFn   func(fabric.Item)
	pipeFn   func(out any)
	readFn   func(data []byte, st uint16)
	egressFn func()
}

func (d *DPU) getFig2() *fig2Ctx {
	c, fresh := d.fig2s.Get()
	if !fresh {
		return c
	}
	c.d = d
	// Stage 1 plumbing: DEMUX + AXIS arbiter, modeled by an AXIS stream
	// with the fabric's clock and bus width carrying the frame into the
	// slot.
	c.stream = fabric.NewStream(d.Eng, "fig2.probe", d.Cfg.Fabric.ClockHz, 64, 8)
	c.sinkFn = c.onArrive
	c.pipeFn = c.onPipeline
	c.readFn = c.onRead
	c.egressFn = c.onEgress
	c.stream.Connect(c.sinkFn)
	return c
}

func (c *fig2Ctx) fail(err error) {
	d, reply, tr := c.d, c.reply, c.tr
	c.reply = nil
	d.fig2s.Put(c)
	reply(tr, nil, err)
}

// onArrive is stage 1 complete: the frame crossed the arbiter.
func (c *fig2Ctx) onArrive(it fabric.Item) {
	d := c.d
	c.t1 = d.Eng.Now()
	c.tr.Arbiter = c.t1.Sub(c.t0)
	if d.rec != nil {
		d.rec.Span("fig2", "arbiter", c.span, c.t0, c.t1)
	}
	// Stage 2: accelerator pipeline.
	if serr := d.Fabric.SubmitSpan(c.slot, it.Payload, c.span, c.pipeFn); serr != nil {
		c.fail(serr)
	}
}

func (c *fig2Ctx) onPipeline(out any) {
	d := c.d
	c.t2 = d.Eng.Now()
	c.tr.Pipeline = c.t2.Sub(c.t1)
	if d.rec != nil {
		d.rec.Span("fig2", "pipeline", c.span, c.t1, c.t2)
	}
	// Stage 3: NVMe host IP core → PCIe bridge → flash.
	if rerr := d.Hosts[c.ssd].ReadSpan(0, c.lba, c.blocks, c.span, c.readFn); rerr != nil {
		c.fail(rerr)
	}
}

func (c *fig2Ctx) onRead(data []byte, st uint16) {
	d := c.d
	c.t3 = d.Eng.Now()
	c.tr.Storage = c.t3.Sub(c.t2)
	if d.rec != nil {
		d.rec.Span("fig2", "storage", c.span, c.t2, c.t3)
	}
	c.data = append(c.data[:0], data...)
	// Stage 4: response egress serialization on QSFP.
	respBytes := len(data) + 64
	egress := sim.Duration(float64(respBytes) / 12.5e9 * float64(sim.Second))
	//hyperlint:allow(eventref) one-shot stage event: its own firing is the only thing that recycles c, so there is no cancel window
	d.Eng.After(egress, "fig2.egress", c.egressFn)
}

func (c *fig2Ctx) onEgress() {
	d := c.d
	t4 := d.Eng.Now()
	c.tr.Egress = t4.Sub(c.t3)
	c.tr.Total = t4.Sub(c.t0)
	if d.rec != nil {
		// No "total" span: the per-request critical path derives
		// end-to-end time from the stage spans, and a covering span
		// would trivially dominate it.
		d.rec.Span("fig2", "egress", c.span, c.t3, t4)
	}
	reply, tr, data := c.reply, c.tr, c.data
	c.reply = nil
	d.fig2s.Put(c)
	reply(tr, data, nil)
}

// Fig2Probe drives one end-to-end request through the full hardware
// path: a frame-sized item crosses the arbiter into the slot, the
// pipeline processes it, the NVMe host IP core reads blocks from the
// SSD that owns the LBA, and the response serializes back out. reply
// receives the stage trace and the data, which is valid only during
// reply: a caller that keeps the bytes copies them.
func (d *DPU) Fig2Probe(slot int, ssd int, lba int64, blocks int, reply func(tr Fig2Trace, data []byte, err error)) error {
	if !d.booted {
		return ErrNotBooted
	}
	if ssd < 0 || ssd >= len(d.Hosts) {
		return fmt.Errorf("core: no ssd %d", ssd)
	}
	c := d.getFig2()
	c.slot, c.ssd, c.lba, c.blocks = slot, ssd, lba, blocks
	c.reply = reply
	c.t0 = d.Eng.Now()
	c.tr = Fig2Trace{}
	// One trace context joins every stage of this probe (0 disarmed).
	c.span = d.rec.NewRequest()
	if c.rec != d.rec {
		c.stream.SetRecorder(d.rec)
		c.rec = d.rec
	}
	const frameBytes = 256
	err := c.stream.Push(fabric.Item{Bytes: frameBytes, Payload: probePayload, Span: c.span})
	if err != nil {
		c.reply = nil
		d.fig2s.Put(c)
	}
	return err
}
