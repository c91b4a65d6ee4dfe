// Package netsim models the 100 Gbps Ethernet fabric that Hyperion DPUs
// and client hosts attach to: NICs, full-duplex links with serialization
// and propagation delay, and a store-and-forward switch with bounded
// output queues (so transports above see real loss under congestion).
package netsim

import (
	"errors"
	"fmt"

	"hyperion/internal/fault"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
	"hyperion/internal/wire"
)

// Addr identifies a NIC on the network.
type Addr string

// Frame is one Ethernet-level unit. Span carries the request-scoped
// trace context across the wire (0 = untagged); it rides beside the
// payload exactly like a tag in a real frame's metadata.
//
// Buf, when non-nil, is the frame's wire bytes (header and inline
// payload) in a pooled buffer. Ownership: a successful Send transfers
// one reference to the network, which releases it when the frame is
// dropped, discarded as corrupt, or after the receiver's handler
// returns — a receiver that keeps the bytes must Retain. On a Send
// error the caller keeps its reference. Payload remains for
// by-reference payloads (transports put the application object of the
// last fragment here).
//
// SrcPort, stamped by Send like Src, is the sender's port number: dense
// from 0 in attach order and kept by an address across Detach and
// re-Attach, so a receiver can index per-peer state by it.
type Frame struct {
	Src, Dst Addr
	Payload  any
	Buf      *wire.Buf
	Bytes    int
	Span     telemetry.RequestID
	SrcPort  int
}

// MTU-ish bounds; jumbo frames are the datacenter norm.
const (
	MinFrameBytes = 64
	MaxFrameBytes = 9216
)

// Errors.
var (
	ErrUnknownDst = errors.New("netsim: unknown destination")
	ErrDupAddr    = errors.New("netsim: address already attached")
	ErrFrameSize  = errors.New("netsim: frame size out of range")
)

// Config shapes the network.
type Config struct {
	PropDelay   sim.Duration // one-way wire propagation (per hop)
	QueueFrames int          // switch output queue depth
}

// The 100 GbE links and switch.
const (
	linkBytesPerSec = 12_500_000_000       // per-direction link bandwidth
	switchLatency   = 300 * sim.Nanosecond // switch forwarding latency
)

// DefaultConfig is a 100 GbE datacenter fabric: 12.5 GB/s links, 500 ns
// propagation per hop, 300 ns cut-through-ish switch latency, 256-frame
// output queues.
func DefaultConfig() Config {
	return Config{
		PropDelay:   500 * sim.Nanosecond,
		QueueFrames: 256,
	}
}

// NIC is one attached endpoint.
type NIC struct {
	Addr Addr
	net  *Network
	port *port
	recv func(Frame)

	// Event names are per-NIC constants; precomputing them keeps the
	// per-frame path free of string concatenation.
	upName, downName string

	txBusy             sim.Time // serialization horizon of the host→switch link
	TxFrames, RxFrames int64
	TxBytes, RxBytes   int64
	RxCorrupt          int64 // frames discarded by the NIC's integrity check
}

// OnReceive installs the receive handler.
func (n *NIC) OnReceive(fn func(Frame)) { n.recv = fn }

// Send transmits one frame. Sends serialize on the NIC's uplink; the
// switch may drop the frame if the destination's output queue is full
// (counted in the network's Drops). On success the network owns
// f.Buf's reference and releases it at delivery or drop; on error the
// caller keeps it.
//
//wire:sends f.Buf
func (n *NIC) Send(f Frame) error {
	f.Src, f.SrcPort = n.Addr, n.port.id
	if f.Bytes < MinFrameBytes {
		f.Bytes = MinFrameBytes
	}
	if f.Bytes > MaxFrameBytes {
		return fmt.Errorf("%w: %d", ErrFrameSize, f.Bytes)
	}
	dst, ok := n.net.nics[f.Dst]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownDst, f.Dst)
	}
	n.TxFrames++
	n.TxBytes += int64(f.Bytes)
	eng := n.net.eng
	now := eng.Now()
	start := n.txBusy
	if start < now {
		start = now
	}
	ser := serTime(f.Bytes)
	n.txBusy = start.Add(ser)
	arriveAtSwitch := n.txBusy.Add(n.net.cfg.PropDelay)
	fe := n.net.getFrameEvent()
	fe.f = f
	fe.dst = dst
	//hyperlint:allow(eventref) one-shot leg event: its own firing is the only thing that recycles fe, so there is no cancel window
	eng.At(arriveAtSwitch, n.upName, fe.upFn)
	return nil
}

// frameEvent carries one in-flight frame through its two scheduled
// legs (uplink → switch, switch → downlink) without a fresh closure
// per leg; instances cycle through the network's free list.
type frameEvent struct {
	net     *Network
	f       Frame
	dst     *NIC
	arrive  sim.Time
	corrupt bool
	upFn    func() // prebound fe.uplink
	downFn  func() // prebound fe.deliver
}

func (fe *frameEvent) uplink() { fe.net.switchForward(fe) }

func (fe *frameEvent) deliver() {
	n, f, dst := fe.net, fe.f, fe.dst
	dst.port.queued--
	if fe.corrupt {
		// The frame arrived but failed the NIC's FCS check: count
		// and discard without surfacing it to the stack.
		dst.RxCorrupt++
		if n.rec != nil {
			n.rec.Count("net", "rx_corrupt", 1)
		}
		if f.Buf != nil {
			f.Buf.Release()
		}
		n.putFrameEvent(fe)
		return
	}
	dst.RxFrames++
	dst.RxBytes += int64(f.Bytes)
	if n.rec != nil {
		n.rec.Span("net", "frame", f.Span, fe.arrive, n.eng.Now())
	}
	n.putFrameEvent(fe)
	if dst.recv != nil {
		dst.recv(f)
	}
	if f.Buf != nil {
		f.Buf.Release()
	}
}

func (n *Network) getFrameEvent() *frameEvent {
	fe, fresh := n.frameEvents.Get()
	if fresh {
		fe.net = n
		fe.upFn = fe.uplink
		fe.downFn = fe.deliver
	}
	return fe
}

func (n *Network) putFrameEvent(fe *frameEvent) {
	fe.f = Frame{}
	fe.dst = nil
	fe.corrupt = false
	n.frameEvents.Put(fe)
}

// port is the switch's output port toward one address. There is one
// per address ever attached: a NIC reaches it through a pointer, so a
// frame finds its port without a lookup, and a re-Attach of a detached
// address takes over the port with the frames still queued on it.
type port struct {
	id     int      // dense port number, Frame.SrcPort
	busy   sim.Time // serialization horizon of the switch→NIC link
	queued int      // frames forwarded and not yet delivered
}

// Network is the fabric: a single switch with one full-duplex link per
// NIC, which matches a rack-scale deployment of Hyperion DPUs.
type Network struct {
	eng   *sim.Engine
	cfg   Config
	nics  map[Addr]*NIC
	ports map[Addr]*port // found at Attach only

	frameEvents sim.FreeList[frameEvent]

	plan *fault.Plan
	rec  *telemetry.Recorder

	Drops         int64 // congestion drops (output queue full)
	Forwards      int64
	FaultDrops    int64 // injected frame drops
	FaultCorrupts int64 // injected frame corruptions
	FaultReorders int64 // injected frame reorderings
}

// New creates an empty network.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.QueueFrames <= 0 {
		panic("netsim: invalid config")
	}
	return &Network{
		eng:   eng,
		cfg:   cfg,
		nics:  make(map[Addr]*NIC),
		ports: make(map[Addr]*port),
	}
}

// SetFaultPlan installs a fault plan consulted once per forwarded frame
// (kinds Drop, Corrupt, Reorder). A nil plan — the default — or a plan
// with all rates at zero leaves the forwarding path bit-identical to an
// uninstrumented network.
func (n *Network) SetFaultPlan(p *fault.Plan) { n.plan = p }

// SetRecorder arms (or with nil, disarms) the telemetry plane: one
// span per delivered frame (switch arrival to NIC delivery) plus drop
// counters. Disarmed, the hooks are pure nil checks — no allocation,
// no time or rng consumption — so forwarding stays bit-identical.
func (n *Network) SetRecorder(rec *telemetry.Recorder) { n.rec = rec }

// Reorder slip bounds: an injected reorder delays one frame by a
// uniform extra latency in this window, enough to slip behind several
// back-to-back successors at 100 GbE but far below transport RTOs.
const (
	reorderSlipLo = 2 * sim.Microsecond
	reorderSlipHi = 20 * sim.Microsecond
)

// Attach adds a NIC with the given address.
func (n *Network) Attach(addr Addr) (*NIC, error) {
	if _, ok := n.nics[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDupAddr, addr)
	}
	p, ok := n.ports[addr]
	if !ok {
		p = &port{id: len(n.ports)}
		n.ports[addr] = p
	}
	nic := &NIC{
		Addr:     addr,
		net:      n,
		port:     p,
		upName:   "net.uplink:" + string(addr),
		downName: "net.downlink:" + string(addr),
	}
	n.nics[addr] = nic
	return nic, nil
}

// Detach removes a NIC (a host powering off). In-flight frames to the
// address are dropped at delivery. The address keeps its port.
func (n *Network) Detach(addr Addr) {
	if nic, ok := n.nics[addr]; ok {
		nic.recv = nil
		delete(n.nics, addr)
	}
}

// switchForward queues the frame on the destination's output port.
// Fault rolls happen here, in arrival order, so an installed plan's
// injections replay identically for a given seed.
func (n *Network) switchForward(fe *frameEvent) {
	p := fe.dst.port
	if n.plan.Roll(fault.Drop) {
		n.FaultDrops++
		if n.rec != nil {
			n.rec.Count("net", "fault_drops", 1)
		}
		n.dropFrame(fe)
		return
	}
	if p.queued >= n.cfg.QueueFrames {
		n.Drops++
		if n.rec != nil {
			n.rec.Count("net", "queue_drops", 1)
		}
		n.dropFrame(fe)
		return
	}
	fe.arrive = n.eng.Now()
	p.queued++
	// Forwarding latency is pipelined: it delays when a frame may start
	// on the output port but does not consume port bandwidth.
	ready := n.eng.Now().Add(switchLatency)
	start := p.busy
	if start < ready {
		start = ready
	}
	p.busy = start.Add(serTime(fe.f.Bytes))
	deliver := p.busy.Add(n.cfg.PropDelay)
	fe.corrupt = n.plan.Roll(fault.Corrupt)
	if fe.corrupt {
		n.FaultCorrupts++
	}
	if n.plan.Roll(fault.Reorder) {
		// Slip this frame only: successors keep their port schedule, so
		// they overtake it in delivery order.
		n.FaultReorders++
		deliver = deliver.Add(n.plan.Delay(reorderSlipLo, reorderSlipHi))
	}
	n.Forwards++
	//hyperlint:allow(eventref) one-shot leg event: its own firing is the only thing that recycles fe, so there is no cancel window
	n.eng.At(deliver, fe.dst.downName, fe.downFn)
}

// dropFrame retires a frame that never reaches its receiver, releasing
// the network's reference on its wire buffer.
func (n *Network) dropFrame(fe *frameEvent) {
	if fe.f.Buf != nil {
		fe.f.Buf.Release()
	}
	n.putFrameEvent(fe)
}

// BaseRTT returns the minimum round trip for a small frame: twice
// (two links' serialization + two propagations + switch latency).
func (n *Network) BaseRTT() sim.Duration {
	oneWay := 2*n.cfg.PropDelay + switchLatency + 2*serTime(MinFrameBytes)
	return 2 * oneWay
}
