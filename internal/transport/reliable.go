package transport

import (
	"hyperion/internal/netsim"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
	"hyperion/internal/wire"
)

// reliableParams differentiate the TCP-like software transport from the
// RDMA-like hardware transport: window size, retransmission timeout, and
// per-message/per-frame processing overheads.
type reliableParams struct {
	Window       int
	RTO          sim.Duration
	SendOverhead sim.Duration // per message, sender side
	RecvOverhead sim.Duration // per message, receiver side
	PerFrameCPU  sim.Duration // serialized per-frame software cost
}

// reliableEndpoint implements go-back-N reliable delivery with per-peer
// connections and cumulative acks. launchMsg finds a connection by address,
// once per message; a received frame finds its peer's state by the
// sender's netsim port (Frame.SrcPort), without hashing an address.
type reliableEndpoint struct {
	endpoint
	p reliableParams

	conns   map[netsim.Addr]*sendConn
	acks    []*sendConn // conns by their peer's port, bound by its first ack
	peers   []recvConn  // by the sender's port
	cpuBusy sim.Time

	txQ  sim.Queue[relTx]
	txFn func()
}

// relTx is one transmission of a fragment; its buf is a reference
// retained for this transmission.
type relTx struct {
	outFrag
	dst netsim.Addr
}

// outFrag is one unacked fragment buffered for retransmission: the
// connection holds its own reference on the wire header until the
// cumulative ack passes it.
type outFrag struct {
	buf     *wire.Buf
	payload any
	span    telemetry.RequestID
	wire    int
}

type sendConn struct {
	r       *reliableEndpoint
	dst     netsim.Addr
	base    uint64 // lowest unacked seq
	nextSeq uint64 // next seq to assign
	sent    uint64 // next seq to transmit (may trail nextSeq under window limit)
	// ring holds the unacked fragments, exactly seqs [base, nextSeq),
	// seq s at ring[s&(len(ring)-1)]. Its length is 0 or a power of two
	// and doubles only when the backlog fills it.
	ring     []outFrag
	rtoTimer sim.EventRef
	backoff  int
	rtoFn    func() // prebound fireRTO, one per connection
}

// recvConn is one sender's receive state. Fragments are accepted only
// in sequence order, and a message's fragments hold consecutive
// sequence numbers, so at most one message is being reassembled.
type recvConn struct {
	expected uint64
	rm       reasm
}

func newReliable(eng *sim.Engine, nic *netsim.NIC, p reliableParams) *reliableEndpoint {
	r := &reliableEndpoint{p: p, conns: make(map[netsim.Addr]*sendConn)}
	r.init(eng, nic, p.SendOverhead, p.RecvOverhead, r)
	r.txFn = r.fireTx
	return r
}

// launchMsg queues o's fragments on its peer's connection under
// consecutive seqs and transmits what the window allows.
func (r *reliableEndpoint) launchMsg(o outMsg) {
	c := r.conns[o.dst]
	if c == nil {
		c = &sendConn{r: r, dst: o.dst}
		c.rtoFn = c.fireRTO
		r.conns[o.dst] = c
	}
	total := fragsFor(o.msg.Bytes)
	for i := range total {
		frag := dataFrag{MsgID: o.id, Index: i, Total: total, Bytes: o.msg.Bytes, Seq: c.nextSeq}
		of := outFrag{buf: encodeData(r.hdrs, frag), span: o.msg.Span, wire: fragWire(o.msg.Bytes, i)}
		if i == total-1 {
			of.payload = o.msg.Payload
		}
		c.push(of)
	}
	r.pump(c)
}

// push appends of under seq nextSeq, doubling the ring when the
// backlog fills it.
func (c *sendConn) push(of outFrag) {
	if c.nextSeq-c.base == uint64(len(c.ring)) {
		ring := make([]outFrag, max(2*len(c.ring), 4))
		for s := c.base; s < c.nextSeq; s++ {
			ring[s&uint64(len(ring)-1)] = *c.frag(s)
		}
		c.ring = ring
	}
	*c.frag(c.nextSeq) = of
	c.nextSeq++
}

// frag returns seq s's slot, for s in [base, nextSeq].
func (c *sendConn) frag(s uint64) *outFrag { return &c.ring[s&uint64(len(c.ring)-1)] }

// cpuDelay serializes per-frame software cost on the endpoint's one
// logical core; it returns the extra delay before the frame may be
// handed to the NIC.
func (r *reliableEndpoint) cpuDelay() sim.Duration {
	if r.p.PerFrameCPU == 0 {
		return 0
	}
	now := r.eng.Now()
	r.cpuBusy = max(r.cpuBusy, now).Add(r.p.PerFrameCPU)
	return r.cpuBusy.Sub(now)
}

// pump transmits frames permitted by the window.
func (r *reliableEndpoint) pump(c *sendConn) {
	for c.sent < c.nextSeq && c.sent < c.base+uint64(r.p.Window) {
		r.transmit(c, c.frag(c.sent))
		c.sent++
	}
	if !c.rtoTimer.Valid() && c.base < c.nextSeq {
		r.armRTO(c)
	}
}

func (r *reliableEndpoint) transmit(c *sendConn, of *outFrag) {
	d := r.cpuDelay()
	// The connection keeps its buffered reference for retransmission;
	// each transmission hands the network its own.
	tx := relTx{outFrag: *of, dst: c.dst}
	tx.buf = of.buf.Retain() //wire:sends the NIC via sendTx — same engine, netsim releases on delivery or drop
	if d > 0 {
		// cpuBusy only moves forward, so queued transmissions fire in
		// push order.
		r.txQ.Push(tx)
		r.eng.After(d, "rel.tx", r.txFn)
	} else {
		r.sendTx(tx)
	}
}

func (r *reliableEndpoint) fireTx() { r.sendTx(r.txQ.Pop()) }

func (r *reliableEndpoint) sendTx(tx relTx) {
	err := r.nic.Send(netsim.Frame{Dst: tx.dst, Payload: tx.payload, Buf: tx.buf, Bytes: tx.wire, Span: tx.span})
	if err != nil {
		tx.buf.Release() // the frame never left; take the reference back
	}
	r.stats.DataFrames++
}

func (r *reliableEndpoint) armRTO(c *sendConn) {
	rto := r.p.RTO << uint(c.backoff)
	c.rtoTimer = r.eng.After(rto, "rel.rto", c.rtoFn)
}

func (c *sendConn) fireRTO() {
	r := c.r
	c.rtoTimer = sim.NoEvent
	if c.base >= c.nextSeq {
		return
	}
	// Go-back-N: retransmit the whole window from base.
	c.backoff = min(c.backoff+1, 6)
	end := min(c.base+uint64(r.p.Window), c.nextSeq)
	for s := c.base; s < end; s++ {
		r.transmit(c, c.frag(s))
		r.stats.Retransmits++
	}
	c.sent = end
	r.armRTO(c)
}

func (r *reliableEndpoint) onFrame(f netsim.Frame) {
	switch frameKind(f) {
	case frameCtrl:
		m := decodeCtrl(f.Buf.Bytes(), nil)
		if m.Op == ackOp {
			r.onAck(f.Src, f.SrcPort, m.Seq)
		}
	case frameData:
		r.onData(f.Src, f.SrcPort, decodeData(f))
	}
}

// slot returns &(*s)[i], growing *s with zero values to hold it.
func slot[T any](s *[]T, i int) *T {
	if i >= len(*s) {
		*s = append(*s, make([]T, i+1-len(*s))...)
	}
	return &(*s)[i]
}

// onAck retires the fragments below cum. An ack past what was
// transmitted can only come from an earlier incarnation of the peer,
// and is ignored.
func (r *reliableEndpoint) onAck(src netsim.Addr, port int, cum uint64) {
	cp := slot(&r.acks, port)
	if *cp == nil {
		if *cp = r.conns[src]; *cp == nil {
			return
		}
	}
	c := *cp
	if cum <= c.base || cum > c.sent {
		return
	}
	for s := c.base; s < cum; s++ {
		of := c.frag(s)
		of.buf.Release()
		*of = outFrag{}
	}
	c.base = cum
	c.backoff = 0
	r.eng.Cancel(c.rtoTimer) // no-op on the zero ref or a fired timer
	c.rtoTimer = sim.NoEvent
	r.pump(c)
}

func (r *reliableEndpoint) onData(src netsim.Addr, port int, frag dataFrag) {
	p := slot(&r.peers, port)
	if frag.Seq == p.expected {
		p.expected++
		r.accept(src, p, frag)
	}
	// Ack cumulatively whether in order or not (duplicate acks trigger
	// nothing special in go-back-N; the sender relies on RTO).
	r.sendCtrl(src, ctrlMsg{Op: ackOp, Seq: p.expected})
}

// accept adds the next in-order fragment to p's message; a message's
// first fragment starts it.
func (r *reliableEndpoint) accept(src netsim.Addr, p *recvConn, frag dataFrag) {
	rm := &p.rm
	if frag.Index == 0 {
		rm.start(frag)
	}
	if rm.add(frag) {
		r.deliver(src, rm)
		*rm = reasm{}
	}
}
