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
// connections and cumulative acks.
type reliableEndpoint struct {
	eng   *sim.Engine
	nic   *netsim.NIC
	p     reliableParams
	stats Stats

	handler func(src netsim.Addr, msg Message)
	conns   map[netsim.Addr]*sendConn
	peers   map[netsim.Addr]*recvConn
	cpuBusy sim.Time
	nextID  uint64

	hdrs   *wire.Pool
	reasms sim.FreeList[reasm]

	sendQ     sim.Queue[relSend]
	txQ       sim.Queue[relTx]
	deliverQ  sim.Queue[delivery]
	sendFn    func()
	txFn      func()
	deliverFn func()
}

type relSend struct {
	c     *sendConn
	id    uint64
	total int
	msg   Message
}

type relTx struct {
	dst     netsim.Addr
	buf     *wire.Buf // retained for this transmission
	wire    int
	payload any
	span    telemetry.RequestID
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
	r        *reliableEndpoint
	dst      netsim.Addr
	base     uint64 // lowest unacked seq
	nextSeq  uint64 // next seq to assign
	sent     uint64 // next seq to transmit (may trail nextSeq under window limit)
	buf      map[uint64]outFrag
	rtoTimer sim.EventRef
	backoff  int
	rtoFn    func() // prebound fireRTO, one per connection
}

type recvConn struct {
	expected uint64
	partial  map[uint64]*reasm
}

func newReliable(eng *sim.Engine, nic *netsim.NIC, p reliableParams) *reliableEndpoint {
	r := &reliableEndpoint{
		eng:   eng,
		nic:   nic,
		p:     p,
		conns: make(map[netsim.Addr]*sendConn),
		peers: make(map[netsim.Addr]*recvConn),
		hdrs:  wire.NewPool(dataHdrLen),
	}
	r.sendFn = r.fireSend
	r.txFn = r.fireTx
	r.deliverFn = r.fireDeliver
	nic.OnReceive(r.onFrame)
	return r
}

func (r *reliableEndpoint) Stats() *Stats { return &r.stats }

func (r *reliableEndpoint) OnMessage(fn func(src netsim.Addr, msg Message)) { r.handler = fn }

func (r *reliableEndpoint) conn(dst netsim.Addr) *sendConn {
	c, ok := r.conns[dst]
	if !ok {
		c = &sendConn{r: r, dst: dst, buf: make(map[uint64]outFrag)}
		c.rtoFn = c.fireRTO
		r.conns[dst] = c
	}
	return c
}

func (r *reliableEndpoint) Send(dst netsim.Addr, msg Message) error {
	if msg.Bytes > MaxMessageBytes {
		return ErrTooLarge
	}
	r.nextID++
	c := r.conn(dst)
	r.stats.Sent++
	r.sendQ.Push(relSend{c: c, id: r.nextID, total: fragsFor(msg.Bytes), msg: msg})
	r.eng.After(r.p.SendOverhead, "rel.send", r.sendFn)
	return nil
}

func (r *reliableEndpoint) fireSend() {
	s := r.sendQ.Pop()
	c := s.c
	for i := 0; i < s.total; i++ {
		frag := dataFrag{MsgID: s.id, Index: i, Total: s.total, Bytes: s.msg.Bytes, Seq: c.nextSeq}
		of := outFrag{buf: encodeData(r.hdrs, frag), span: s.msg.Span, wire: fragWire(s.msg.Bytes, i)}
		if i == s.total-1 {
			of.payload = s.msg.Payload
		}
		c.buf[c.nextSeq] = of
		c.nextSeq++
	}
	r.pump(c)
}

// cpuDelay serializes per-frame software cost on the endpoint's one
// logical core; it returns the extra delay before the frame may be
// handed to the NIC.
func (r *reliableEndpoint) cpuDelay() sim.Duration {
	if r.p.PerFrameCPU == 0 {
		return 0
	}
	now := r.eng.Now()
	start := r.cpuBusy
	if start < now {
		start = now
	}
	r.cpuBusy = start.Add(r.p.PerFrameCPU)
	return r.cpuBusy.Sub(now)
}

// pump transmits frames permitted by the window.
func (r *reliableEndpoint) pump(c *sendConn) {
	for c.sent < c.nextSeq && c.sent < c.base+uint64(r.p.Window) {
		of, ok := c.buf[c.sent]
		if !ok {
			c.sent++
			continue
		}
		r.transmit(c, of)
		c.sent++
	}
	if !c.rtoTimer.Valid() && c.base < c.nextSeq {
		r.armRTO(c)
	}
}

func (r *reliableEndpoint) transmit(c *sendConn, of outFrag) {
	d := r.cpuDelay()
	// The connection keeps its buffered reference for retransmission;
	// each transmission hands the network its own.
	tx := relTx{dst: c.dst, buf: of.buf.Retain(), wire: of.wire, payload: of.payload, span: of.span} //wire:sends the NIC via sendTx — same engine, netsim releases on delivery or drop
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
	if c.backoff < 6 {
		c.backoff++
	}
	end := c.base + uint64(r.p.Window)
	if end > c.nextSeq {
		end = c.nextSeq
	}
	for s := c.base; s < end; s++ {
		if of, ok := c.buf[s]; ok {
			r.transmit(c, of)
			r.stats.Retransmits++
		}
	}
	c.sent = end
	r.armRTO(c)
}

func (r *reliableEndpoint) onFrame(f netsim.Frame) {
	switch frameKind(f) {
	case frameCtrl:
		m := decodeCtrl(f.Buf.Bytes(), nil)
		if m.Op == ackOp {
			r.onAck(f.Src, m.Seq)
		}
	case frameData:
		r.onData(f.Src, decodeData(f))
	}
}

func (r *reliableEndpoint) onAck(src netsim.Addr, cum uint64) {
	c, ok := r.conns[src]
	if !ok {
		return
	}
	if cum <= c.base {
		return
	}
	for s := c.base; s < cum; s++ {
		if of, ok := c.buf[s]; ok {
			of.buf.Release()
			delete(c.buf, s)
		}
	}
	c.base = cum
	c.backoff = 0
	r.eng.Cancel(c.rtoTimer) // no-op on the zero ref or a fired timer
	c.rtoTimer = sim.NoEvent
	r.pump(c)
}

func (r *reliableEndpoint) peer(src netsim.Addr) *recvConn {
	p, ok := r.peers[src]
	if !ok {
		p = &recvConn{partial: make(map[uint64]*reasm)}
		r.peers[src] = p
	}
	return p
}

func (r *reliableEndpoint) onData(src netsim.Addr, frag dataFrag) {
	p := r.peer(src)
	if frag.Seq == p.expected {
		p.expected++
		r.accept(src, p, frag)
	}
	// Ack cumulatively whether in order or not (duplicate acks trigger
	// nothing special in go-back-N; the sender relies on RTO).
	r.sendCtrl(src, ctrlMsg{Op: ackOp, Seq: p.expected})
}

func (r *reliableEndpoint) accept(src netsim.Addr, p *recvConn, frag dataFrag) {
	rm, ok := p.partial[frag.MsgID]
	if !ok {
		rm, _ = r.reasms.Get()
		*rm = reasm{total: frag.Total, bytes: frag.Bytes, span: frag.Span}
		p.partial[frag.MsgID] = rm
	}
	rm.have++
	if frag.Payload != nil {
		rm.payload = frag.Payload
	}
	if rm.have == rm.total {
		delete(p.partial, frag.MsgID)
		r.stats.Delivered++
		r.deliverQ.Push(delivery{src: src, msg: Message{Payload: rm.payload, Bytes: rm.bytes, Span: rm.span}})
		rm.payload = nil
		r.reasms.Put(rm)
		r.eng.After(r.p.RecvOverhead, "rel.deliver", r.deliverFn)
	}
}

func (r *reliableEndpoint) fireDeliver() {
	d := r.deliverQ.Pop()
	if r.handler != nil {
		r.handler(d.src, d.msg)
	}
}

func (r *reliableEndpoint) sendCtrl(dst netsim.Addr, m ctrlMsg) {
	hdr := encodeCtrl(r.hdrs, m)
	if err := r.nic.Send(netsim.Frame{Dst: dst, Buf: hdr, Bytes: headerBytes}); err != nil {
		hdr.Release()
	}
	r.stats.CtrlFrames++
}
