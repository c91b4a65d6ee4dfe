// Package nvme models an off-the-shelf NVMe SSD as attached to the
// Hyperion crossover board: submission/completion queue pairs addressed
// through BAR doorbells, a multi-channel flash backend with realistic
// read/program latencies, and a real (sparse, in-memory) block store so
// that the storage stack above it round-trips actual bytes.
package nvme

import (
	"errors"

	"hyperion/internal/fault"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// Opcodes (a small, structurally faithful subset of NVMe I/O commands).
const (
	OpFlush uint8 = 0x00
	OpWrite uint8 = 0x01
	OpRead  uint8 = 0x02
)

// Status codes.
const (
	StatusOK        uint16 = 0x0
	StatusInvalidNS uint16 = 0x0B
	StatusLBARange  uint16 = 0x80
	StatusInvalidOp uint16 = 0x01
	// StatusInternal is the injected-fault status (media error class).
	StatusInternal uint16 = 0x06
	// StatusTimeout is synthesized by the Host when a command misses its
	// deadline; the device never posts it.
	StatusTimeout uint16 = 0xFFFD
)

// Doorbell register layout within the BAR: doorbell for queue q is at
// offset DoorbellStride*q.
const DoorbellStride = 8

// Errors returned by host-side operations.
var (
	ErrQueueFull  = errors.New("nvme: submission queue full")
	ErrBadQueue   = errors.New("nvme: no such queue")
	ErrShortWrite = errors.New("nvme: write data length does not match block count")
)

// Config shapes the device. The defaults approximate a 2023 datacenter
// TLC NVMe drive.
type Config struct {
	Name           string
	BlockSize      int          // bytes per LBA, typically 4096
	Blocks         int64        // capacity in blocks
	Channels       int          // independent flash channels
	ReadLatency    sim.Duration // flash page read (tR)
	ProgramLatency sim.Duration // flash page program (tProg), behind write cache
	CtrlOverhead   sim.Duration // controller firmware per-command overhead
	MaxQueuePairs  int
	QueueDepth     int
}

// DefaultConfig returns a 1 TB-class drive: 4K blocks, 8 channels,
// 70 µs reads, 15 µs cached writes, 3 µs controller overhead.
func DefaultConfig(name string) Config {
	return Config{
		Name:           name,
		BlockSize:      4096,
		Blocks:         256 << 20, // 1 TiB of 4K blocks
		Channels:       8,
		ReadLatency:    70 * sim.Microsecond,
		ProgramLatency: 15 * sim.Microsecond,
		CtrlOverhead:   3 * sim.Microsecond,
		MaxQueuePairs:  16,
		QueueDepth:     1024,
	}
}

// Command is a submission-queue entry. Span carries the
// request-scoped trace context alongside the command, like a vendor
// tag in the reserved SQE dwords.
type Command struct {
	Opcode uint8
	CID    uint16
	NSID   uint32
	LBA    int64
	Blocks int
	Data   []byte // write payload; nil for reads
	Span   telemetry.RequestID
}

// opName labels a command's opcode for telemetry with a static
// string, so armed span recording never allocates.
func opName(op uint8) string {
	switch op {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpFlush:
		return "flush"
	}
	return "op"
}

// Completion is a completion-queue entry delivered to the host.
type Completion struct {
	CID    uint16
	Status uint16
	Data   []byte // read payload, lent until the handler returns; nil otherwise
}

// Device is the SSD model. It implements pcie.Device. All methods must
// be called from the simulation loop.
type Device struct {
	cfg Config
	eng *sim.Engine

	// dma is injected by Bind: it models moving size bytes across the
	// device's PCIe link and fires done when the transfer completes.
	dma func(size int64, done func())
	// interrupt is the MSI-X-like completion notification to the host
	// driver, carrying the queue id and the completion entry.
	interrupt func(qid int, c Completion)

	queues   []queuePair
	channels []sim.Time // per-flash-channel busy horizon
	store    blockTable // sparse LBA → block payload

	// lanes carry the device's monotone completions (sim.Lane): one per
	// flash channel for reads, ordered by that channel's horizon, then
	// one for write cache-accept, a fixed overhead after the transfer.
	// Built by the first flash access; a device that never runs a
	// queued command allocates none.
	lanes []sim.Lane[cmdCtx, *cmdCtx]

	// plan is the fault plane (media errors, swallowed commands); see
	// SetFaultPlan.
	plan *fault.Plan
	rec  *telemetry.Recorder

	evName  string // precomputed event name for all device-side events
	ctxs    sim.FreeList[cmdCtx]
	bufFree [][]byte // payload buffers of completed reads
	zero    []byte   // read-only image of a never-written block (BorrowSync)

	Counters sim.CounterSet
}

// SetRecorder arms the telemetry plane: one span per completed
// command, from execute start to completion post, named by opcode.
// Disarmed (nil) the hooks are pure nil checks.
func (d *Device) SetRecorder(rec *telemetry.Recorder) { d.rec = rec }

// SetFaultPlan installs a fault plan consulted once per I/O command
// (kinds MediaErr → StatusInternal completion, Timeout → the command is
// swallowed and never completes, exercising host deadlines). A nil or
// zero-rate plan leaves command execution bit-identical to an unhooked
// device.
// The functional Sync path is never affected.
func (d *Device) SetFaultPlan(p *fault.Plan) { d.plan = p }

// queuePair is one submission queue and its in-flight count.
type queuePair struct {
	id       int
	pending  sim.Queue[Command]
	inFlight int
	depth    int
}

// New creates a device.
func New(eng *sim.Engine, cfg Config) *Device {
	if cfg.BlockSize <= 0 || cfg.Blocks <= 0 || cfg.Channels <= 0 || cfg.QueueDepth <= 0 {
		panic("nvme: invalid config")
	}
	d := &Device{
		cfg:      cfg,
		eng:      eng,
		channels: make([]sim.Time, cfg.Channels),
		evName:   "nvme:" + cfg.Name,
	}
	d.queues = make([]queuePair, cfg.MaxQueuePairs)
	for i := range d.queues {
		d.queues[i] = queuePair{id: i, depth: cfg.QueueDepth}
	}
	return d
}

// Bind wires the device to its link and host driver. dma may be nil in
// unit tests (transfers then cost zero link time).
func (d *Device) Bind(dma func(size int64, done func()), interrupt func(qid int, c Completion)) {
	d.dma = dma
	d.interrupt = interrupt
}

// PCIe endpoint interface.

// PCIeName implements pcie.Device.
func (d *Device) PCIeName() string { return d.cfg.Name }

// BARSize implements pcie.Device: doorbells for every queue pair.
func (d *Device) BARSize() int64 { return 1 << 14 }

// MMIOWrite implements pcie.Device: a doorbell write makes the device
// fetch and execute queued commands.
func (d *Device) MMIOWrite(off int64, _ uint64) {
	q := int(off / DoorbellStride)
	if q < 0 || q >= len(d.queues) {
		return
	}
	d.pump(&d.queues[q])
}

// Enqueue places a command into SQ q. In real NVMe the SQE lives in host
// memory and the device fetches it after the doorbell; Enqueue is that
// host-memory write. It fails when the queue is at depth.
func (d *Device) Enqueue(q int, cmd Command) error {
	if q < 0 || q >= len(d.queues) {
		return ErrBadQueue
	}
	qp := &d.queues[q]
	if qp.pending.Len()+qp.inFlight >= qp.depth {
		return ErrQueueFull
	}
	if cmd.Opcode == OpWrite && len(cmd.Data) != cmd.Blocks*d.cfg.BlockSize {
		return ErrShortWrite
	}
	qp.pending.Push(cmd)
	return nil
}

// pump starts execution of all pending commands on a queue.
func (d *Device) pump(qp *queuePair) {
	for qp.pending.Len() > 0 {
		qp.inFlight++
		d.execute(qp, qp.pending.Pop())
	}
}

// Stages of a command's event chain. Each command takes exactly one
// path, so the stage set when an event is scheduled is the one its
// firing runs.
const (
	stageComplete  uint8 = iota // post ctx.status/ctx.data (also write cache-accept)
	stageReadDone               // flash read done: snapshot the store, start data DMA
	stageWriteXfer              // write payload crossed the link: program it
	stageSwallow                // injected firmware hang: free the slot silently
)

// cmdCtx carries one in-flight command through its event chain. Every
// event of the chain fires the context itself, which dispatches on
// stage; instances cycle through the device's free list. status and
// data set at schedule time are what the completion posts.
type cmdCtx struct {
	d      *Device
	qp     *queuePair
	cmd    Command
	start  sim.Time
	status uint16
	stage  uint8
	data   []byte

	wscratch []byte // reusable write-payload copy, capacity kept

	// step is Fire as a func(), bound the first time a path that takes
	// one schedules the context: the DMA hook or a heap timer (a flush,
	// a failed or swallowed command). A lane event needs none, so a
	// device without a DMA hook that serves only good reads and writes
	// never binds it.
	step func()

	// timer is the chain's pending device-side event. Nothing cancels
	// it — a context recycles only from its own last event — but a
	// pooled instance keeps the ref of every timer bound to it (the
	// eventref rule), cleared on recycle.
	timer sim.EventRef
}

func (d *Device) getCtx(qp *queuePair, cmd Command) *cmdCtx {
	c, fresh := d.ctxs.Get()
	if fresh {
		c.d = d
	}
	c.qp = qp
	c.cmd = cmd
	c.start = d.eng.Now()
	return c
}

// Fire runs the command's current stage.
func (c *cmdCtx) Fire() {
	switch c.stage {
	case stageComplete:
		c.complete()
	case stageReadDone:
		c.readDone()
	case stageWriteXfer:
		c.writeXfer()
	case stageSwallow:
		c.swallow()
	}
}

// complete posts the completion interrupt and recycles the context. A
// read's buffer returns to the device once the handler has returned.
func (c *cmdCtx) complete() {
	d := c.d
	c.qp.inFlight--
	cpl := Completion{CID: c.cmd.CID, Status: c.status, Data: c.data}
	d.Counters.Get("completions").Add(1)
	if d.rec != nil {
		d.rec.Span("nvme.dev", opName(c.cmd.Opcode), c.cmd.Span, c.start, d.eng.Now())
	}
	qid := c.qp.id
	c.data = nil
	c.cmd = Command{}
	c.qp = nil
	c.timer = sim.NoEvent
	d.ctxs.Put(c)
	if d.interrupt != nil {
		d.interrupt(qid, cpl)
	}
	if cpl.Data != nil {
		retire(cpl.Data)
		d.bufFree = append(d.bufFree, cpl.Data)
	}
}

func (c *cmdCtx) swallow() {
	d := c.d
	c.qp.inFlight--
	c.cmd = Command{}
	c.qp = nil
	c.timer = sim.NoEvent
	d.ctxs.Put(c)
}

// fail schedules a completion with the given status after delay.
func (c *cmdCtx) fail(status uint16, delay sim.Duration) {
	c.status = status
	c.data = nil
	c.d.after(delay, c, stageComplete)
}

// execute models one command: SQE fetch DMA, flash access on the LBA's
// channel, data DMA, CQE post, interrupt.
func (d *Device) execute(qp *queuePair, cmd Command) {
	c := d.getCtx(qp, cmd)
	if cmd.NSID != 1 {
		c.fail(StatusInvalidNS, d.cfg.CtrlOverhead)
		return
	}
	switch cmd.Opcode {
	case OpFlush:
		// All cached writes are durable once programmed; flush waits for
		// the busiest channel to drain.
		var horizon sim.Time
		for _, t := range d.channels {
			if t > horizon {
				horizon = t
			}
		}
		wait := horizon.Sub(d.eng.Now())
		if wait < 0 {
			wait = 0
		}
		c.status, c.data = StatusOK, nil
		d.after(d.cfg.CtrlOverhead+wait, c, stageComplete)
		d.Counters.Get("flushes").Add(1)
	case OpRead, OpWrite:
		if cmd.LBA < 0 || cmd.Blocks <= 0 || cmd.LBA+int64(cmd.Blocks) > d.cfg.Blocks {
			c.fail(StatusLBARange, d.cfg.CtrlOverhead)
			return
		}
		if d.plan.Roll(fault.Timeout) {
			// Firmware hang: the command is consumed — its slot frees once
			// the controller abandons it — but no completion is ever
			// posted. Only a host-side deadline surfaces it.
			d.Counters.Get("injected_timeouts").Add(1)
			d.after(d.cfg.CtrlOverhead, c, stageSwallow)
			return
		}
		if d.plan.Roll(fault.MediaErr) {
			d.Counters.Get("injected_media_errors").Add(1)
			c.fail(StatusInternal, d.cfg.CtrlOverhead+d.cfg.ReadLatency)
			return
		}
		d.accessFlash(c)
	default:
		c.fail(StatusInvalidOp, d.cfg.CtrlOverhead)
	}
}

func (d *Device) accessFlash(c *cmdCtx) {
	cmd := &c.cmd
	isRead := cmd.Opcode == OpRead
	// Each block lands on channel lba%Channels; the command finishes when
	// its slowest block does. Channels serialize their own operations.
	perBlock := d.cfg.ProgramLatency
	if isRead {
		perBlock = d.cfg.ReadLatency
	}
	var latest sim.Time
	var slowest int
	now := d.eng.Now()
	for i := 0; i < cmd.Blocks; i++ {
		ch := int((cmd.LBA + int64(i)) % int64(d.cfg.Channels))
		start := d.channels[ch]
		if start < now {
			start = now
		}
		end := start.Add(perBlock)
		d.channels[ch] = end
		if end > latest {
			latest, slowest = end, ch
		}
	}
	if isRead {
		d.Counters.Get("read_blocks").Add(int64(cmd.Blocks))
		// The completion is due a controller overhead after the channel
		// whose block finishes last; that channel's horizon only grows,
		// so its lane takes the event in order.
		d.onLane(d.lane(slowest), latest.Add(d.cfg.CtrlOverhead), c, stageReadDone)
	} else {
		d.Counters.Get("write_blocks").Add(int64(cmd.Blocks))
		// Data crosses the link first, then programs behind write cache;
		// completion is posted at cache-accept time (flash programs in
		// the background, visible to Flush). The payload is copied into
		// the context's reusable scratch: the caller's buffer may be a
		// pooled capsule that is recycled before the link transfer lands.
		c.wscratch = append(c.wscratch[:0], cmd.Data...)
		c.cmd.Data = nil
		d.transfer(int64(cmd.Blocks)*int64(d.cfg.BlockSize), c, stageWriteXfer)
	}
}

// readDone fires when the slowest flash channel has the data: the
// payload is the store's content now, whatever is written while it
// crosses the link.
func (c *cmdCtx) readDone() {
	d := c.d
	c.status, c.data = StatusOK, d.readStore(c.cmd.LBA, c.cmd.Blocks)
	d.transfer(int64(c.cmd.Blocks)*int64(d.cfg.BlockSize), c, stageComplete)
}

// writeXfer fires when the write payload has crossed the link; the
// completion is posted at cache-accept, one controller overhead later.
func (c *cmdCtx) writeXfer() {
	d := c.d
	d.writeStore(c.cmd.LBA, c.wscratch)
	c.status, c.data = StatusOK, nil
	d.onLane(d.lane(d.cfg.Channels), d.eng.Now().Add(d.cfg.CtrlOverhead), c, stageComplete)
}

// transfer moves size bytes across the link, then runs c's stage.
func (d *Device) transfer(size int64, c *cmdCtx, stage uint8) {
	c.stage = stage
	if d.dma == nil {
		c.Fire()
		return
	}
	d.dma(size, c.fn())
}

// after runs c's stage once delay has elapsed.
func (d *Device) after(delay sim.Duration, c *cmdCtx, stage uint8) {
	c.stage = stage
	c.timer = d.eng.After(delay, d.evName, c.fn())
}

// fn returns c.step, binding it on first use.
func (c *cmdCtx) fn() func() {
	if c.step == nil {
		c.step = c.Fire
	}
	return c.step
}

// onLane runs c's stage at t on lane l. A lane event returns no ref:
// nothing cancels a chain's event, and the context recycles only from
// the chain's last one.
func (d *Device) onLane(l *sim.Lane[cmdCtx, *cmdCtx], t sim.Time, c *cmdCtx, stage uint8) {
	c.stage = stage
	l.At(d.eng, t, c)
}

// lane returns lane i of d.lanes, building the set on first use.
func (d *Device) lane(i int) *sim.Lane[cmdCtx, *cmdCtx] {
	if d.lanes == nil {
		d.lanes = make([]sim.Lane[cmdCtx, *cmdCtx], d.cfg.Channels+1)
	}
	return &d.lanes[i]
}

// readStore snapshots blocks [lba, lba+blocks) for a queued read into a
// buffer a previous completion handed back; only when none is free, or
// the one on top is too small, does it make a new one.
func (d *Device) readStore(lba int64, blocks int) []byte {
	size := blocks * d.cfg.BlockSize
	var out []byte
	if n := len(d.bufFree); n > 0 {
		out = d.bufFree[n-1]
		d.bufFree = d.bufFree[:n-1]
	}
	fresh := cap(out) < size
	if fresh {
		out = make([]byte, size)
	}
	out = out[:size]
	d.fill(out, lba, blocks, fresh)
	return out
}

// fill copies blocks [lba, lba+blocks) into dst. Unwritten blocks read
// back as zeros; zeroed says dst already is, so they need no clearing.
func (d *Device) fill(dst []byte, lba int64, blocks int, zeroed bool) {
	bs := d.cfg.BlockSize
	for i := 0; i < blocks; i++ {
		span := dst[i*bs : (i+1)*bs]
		if b := d.store.get(lba + int64(i)); b != nil {
			copy(span, b)
		} else if !zeroed {
			clear(span)
		}
	}
}

// block returns the stored buffer of lba, materializing a zeroed one
// for a block never written. Blocks are stored at full block size and
// a rewrite reuses the buffer.
func (d *Device) block(lba int64) []byte {
	return d.store.block(lba, d.cfg.BlockSize)
}

func (d *Device) writeStore(lba int64, data []byte) {
	bs := d.cfg.BlockSize
	for i := 0; i*bs < len(data); i++ {
		// Zero-pad past a short final fragment.
		blk := d.block(lba + int64(i))
		n := copy(blk, data[i*bs:])
		clear(blk[n:])
	}
}

// StoredBlocks reports how many distinct blocks have been written (for
// tests and capacity accounting).
func (d *Device) StoredBlocks() int { return d.store.n }

// Functional (synchronous) access path. The storage structures above the
// segment store execute their logic functionally and charge modeled
// latency separately; these accessors move bytes without going through
// the queue-pair machinery. AccessCost supplies the matching latency.

// ReadSyncInto copies blocks [lba, lba+n) into dst, which must hold at
// least n full blocks, allocating nothing.
func (d *Device) ReadSyncInto(dst []byte, lba int64, blocks int) {
	d.fill(dst, lba, blocks, false)
}

// BorrowSync returns block lba in place: the stored buffer itself, or
// the device's shared zero block for a block never written. The result
// is read-only and valid until lba is next written.
func (d *Device) BorrowSync(lba int64) []byte {
	if b := d.store.get(lba); b != nil {
		return b
	}
	if d.zero == nil {
		d.zero = make([]byte, d.cfg.BlockSize)
	}
	return d.zero
}

// WriteSync stores data at lba immediately.
func (d *Device) WriteSync(lba int64, data []byte) {
	d.writeStore(lba, data)
}

// PatchSync overwrites len(data) bytes starting off bytes into block
// lba, running on into the following blocks, and leaves every other
// stored byte as it was: the in-place form of reading the covering
// blocks, merging data and writing them back. Block lba is
// materialized even when data is empty, as that write-back would.
func (d *Device) PatchSync(lba int64, off int, data []byte) {
	for {
		n := copy(d.block(lba)[off:], data)
		data = data[n:]
		if len(data) == 0 {
			return
		}
		lba++
		off = 0
	}
}

// AccessCost models the device-side latency of reading or writing n
// blocks in one command: controller overhead plus flash time with
// channel-level parallelism.
func (d *Device) AccessCost(op uint8, blocks int) sim.Duration {
	per := d.cfg.ProgramLatency
	if op == OpRead {
		per = d.cfg.ReadLatency
	}
	waves := (blocks + d.cfg.Channels - 1) / d.cfg.Channels
	if waves < 1 {
		waves = 1
	}
	return d.cfg.CtrlOverhead + sim.Duration(waves)*per
}

// Device returns the underlying device of a host (functional access).
func (h *Host) Device() *Device { return h.dev }

// Host is the driver side: it owns CID allocation and pending-command
// tracking, submits through Enqueue + a doorbell ring, and dispatches
// completions back to per-command callbacks.
type Host struct {
	dev      *Device
	ring     func(q int) // doorbell write (via PCIe MMIO in the full system)
	nextCID  uint16
	cmds     []hostCmd    // outstanding commands, indexed by CID (see hostCmd)
	deadline sim.Duration // 0 = no deadline (the default)
	rec      *telemetry.Recorder
	QueueErr int64
	Timeouts int64 // deadline-synthesized StatusTimeout completions
}

// SetRecorder arms the telemetry plane: one span per submitted
// command covering submission to completion callback (queueing + the
// whole device round trip), named by opcode. Disarmed (nil) the
// Submit path is bit-identical to the unhooked driver.
func (h *Host) SetRecorder(rec *telemetry.Recorder) { h.rec = rec }

// NewHost builds a driver for dev. ring performs the doorbell write for
// queue q; pass nil to ring the device directly (unit tests).
func NewHost(dev *Device, ring func(q int)) *Host {
	h := &Host{dev: dev, ring: ring}
	dev.Bind(dev.dma, h.onInterrupt) // preserve any existing dma hook
	return h
}

// SetDeadline arms a per-command timeout: if the device has not posted
// a completion within d of submission, the host synthesizes a
// StatusTimeout completion and forgets the command (a late device
// completion for it is dropped). Zero — the default — disables
// deadlines and leaves submission bit-identical to the unarmed driver.
func (h *Host) SetDeadline(d sim.Duration) { h.deadline = d }

// hostCmd is one slot of the host's command table. A CID is a
// queue-slot index on the wire and it is one here: the table is a
// power-of-two array indexed by the CID's low bits, a slot is occupied
// — busy — exactly while its command is outstanding, and the table
// doubles when a new CID lands on an older outstanding command, so it
// is as large as the span of outstanding CIDs (a few slots for a
// closed loop, 65 536 at most, where a slot is a CID) however many
// commands the host has submitted. A slot is 32 bytes.
type hostCmd struct {
	done  Completer    // hears the command's completion
	timer sim.EventRef // the armed deadline, if any
	cid   uint16
	busy  bool
}

// Completer hears a command's completion. A pooled context that issues
// commands implements it and passes itself to Submit, so a command
// binds no callback; Read's func callback converts to one for free.
type Completer interface{ Complete(Completion) }

// readFunc is Read's callback as a Completer. A nil one hears nothing.
type readFunc func(data []byte, status uint16)

func (f readFunc) Complete(c Completion) {
	if f != nil {
		f(c.Data, c.Status)
	}
}

// cplFunc is a func(Completion) as a Completer: the traced host's
// span-recording wrapper.
type cplFunc func(Completion)

func (f cplFunc) Complete(c Completion) { f(c) }

// outstanding returns the slot of the command outstanding under cid, or
// nil: completed, timed out, or never issued with a callback.
func (h *Host) outstanding(cid uint16) *hostCmd {
	if len(h.cmds) == 0 {
		return nil
	}
	s := &h.cmds[int(cid)&(len(h.cmds)-1)]
	if !s.busy || s.cid != cid {
		return nil
	}
	return s
}

// onInterrupt completes the command outstanding under c.CID; a
// completion for any other CID is dropped.
func (h *Host) onInterrupt(qid int, c Completion) {
	s := h.outstanding(c.CID)
	if s == nil {
		return
	}
	cb, timer := s.done, s.timer
	*s = hostCmd{}
	h.dev.eng.Cancel(timer) // a no-op when no deadline was armed
	cb.Complete(c)
}

// allocCID advances the CID counter to the next CID with no command
// outstanding — after the 16-bit counter wraps, a parked command keeps
// its CID; ok is false when all 65 536 are taken.
func (h *Host) allocCID() (cid uint16, ok bool) {
	for range 1 << 16 {
		h.nextCID++
		if h.outstanding(h.nextCID) == nil {
			return h.nextCID, true
		}
	}
	return 0, false
}

// claim returns the empty slot for cid, which no outstanding command
// holds. While an older command sits where cid maps the table doubles:
// two CIDs share a slot only below 65 536 slots, so this ends.
func (h *Host) claim(cid uint16) *hostCmd {
	for len(h.cmds) == 0 || h.cmds[int(cid)&(len(h.cmds)-1)].busy {
		old := h.cmds
		h.cmds = make([]hostCmd, max(2*len(old), 16))
		for _, s := range old {
			if s.busy {
				h.cmds[int(s.cid)&(len(h.cmds)-1)] = s
			}
		}
	}
	return &h.cmds[int(cid)&(len(h.cmds)-1)]
}

// Submit issues cmd on queue q and, unless cb is nil, tells cb of its
// completion. A read's Completion.Data is lent as Read's payload is:
// valid until Complete returns. A command submitted with a nil cb is
// not tracked: it takes no slot and arms no deadline.
func (h *Host) Submit(q int, cmd Command, cb Completer) error {
	cid, ok := h.allocCID()
	if !ok {
		h.QueueErr++
		return ErrQueueFull
	}
	cmd.CID = cid
	if err := h.dev.Enqueue(q, cmd); err != nil {
		h.QueueErr++
		return err
	}
	if cb != nil {
		if h.rec != nil {
			submitted := h.dev.eng.Now()
			op, span, inner := opName(cmd.Opcode), cmd.Span, cb
			cb = cplFunc(func(c Completion) {
				h.rec.Span("nvme.host", op, span, submitted, h.dev.eng.Now())
				inner.Complete(c)
			})
		}
		s := h.claim(cid)
		s.done, s.cid, s.busy = cb, cid, true
		if h.deadline > 0 {
			// The completion cancels this timer, so when it fires the
			// command it was armed for is still outstanding.
			s.timer = h.dev.eng.After(h.deadline, "nvme.deadline:"+h.dev.cfg.Name, func() {
				s := h.outstanding(cid)
				pcb := s.done
				*s = hostCmd{}
				h.Timeouts++
				pcb.Complete(Completion{CID: cid, Status: StatusTimeout})
			})
		}
	}
	if h.ring != nil {
		h.ring(q)
	} else {
		h.dev.MMIOWrite(int64(q)*DoorbellStride, 1)
	}
	return nil
}

// Read reads blocks starting at lba on queue q. data is the store's
// content when the flash read finished, in a buffer the device owns and
// reuses for a later read: it is valid only during the handler call. A
// receiver that keeps the bytes copies them into storage it owns (race
// builds overwrite the buffer with 0xDB as soon as cb returns).
func (h *Host) Read(q int, lba int64, blocks int, cb func(data []byte, status uint16)) error {
	return h.Submit(q, Command{Opcode: OpRead, NSID: 1, LBA: lba, Blocks: blocks}, readFunc(cb))
}

// DeviceBlocks returns the capacity of the underlying device in blocks.
func (h *Host) DeviceBlocks() int64 { return h.dev.cfg.Blocks }

// BlockSize returns the underlying device's block size in bytes.
func (h *Host) BlockSize() int { return h.dev.cfg.BlockSize }
