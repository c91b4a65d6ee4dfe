package transport

import (
	"hyperion/internal/netsim"
	"hyperion/internal/sim"
	"hyperion/internal/wire"
)

// endpoint is the plumbing every transport shares: the NIC binding and
// handler, message ids, the header pool, the data- and control-frame
// senders, and two fixed-delay event queues, one in front of the
// protocol's launch of a message and one in front of delivery. A protocol
// embeds it and keeps only its own protocol.
type endpoint struct {
	eng     *sim.Engine
	nic     *netsim.NIC
	stats   Stats
	handler func(src netsim.Addr, msg Message)
	nextID  uint64
	hdrs    *wire.Pool

	sendOverhead sim.Duration // per message, sender side
	recvOverhead sim.Duration // per message, receiver side
	proto        protocol

	// Each queue's events share one fixed delay, so pop order matches
	// push order and one prebound function serves them all.
	sendQ     sim.Queue[outMsg]
	deliverQ  sim.Queue[delivery]
	sendFn    func()
	deliverFn func()
}

// protocol is what a transport adds to its endpoint: the first step
// for an admitted message, and the handling of a received frame.
type protocol interface {
	launchMsg(outMsg)
	onFrame(netsim.Frame)
}

// outMsg is an admitted message awaiting its send-overhead event.
type outMsg struct {
	dst netsim.Addr
	id  uint64
	msg Message
}

// delivery is one reassembled message awaiting its receive-overhead
// event.
type delivery struct {
	src netsim.Addr
	msg Message
}

// msgKey names an inbound message: each sender numbers its own.
type msgKey struct {
	src netsim.Addr
	id  uint64
}

func (k msgKey) less(o msgKey) bool { return k.id < o.id || k.id == o.id && k.src < o.src }

// reasm reassembles one message from its fragments.
type reasm struct {
	have, total int
	msg         Message
}

// start begins reassembling frag's message.
func (r *reasm) start(frag dataFrag) {
	*r = reasm{total: frag.Total, msg: Message{Bytes: frag.Bytes, Span: frag.Span}}
}

// add counts frag, a fragment r has not seen, and reports whether the
// message is complete.
func (r *reasm) add(frag dataFrag) bool {
	r.have++
	if frag.Payload != nil {
		r.msg.Payload = frag.Payload
	}
	return r.have == r.total
}

// init binds e to nic for p: frames go to p.onFrame, and each admitted
// message reaches p.launchMsg after sendOverhead.
func (e *endpoint) init(eng *sim.Engine, nic *netsim.NIC, sendOverhead, recvOverhead sim.Duration, p protocol) {
	e.eng, e.nic = eng, nic
	e.sendOverhead, e.recvOverhead = sendOverhead, recvOverhead
	e.hdrs = wire.NewPool(dataHdrLen)
	e.proto = p
	e.sendFn = e.fireSend
	e.deliverFn = e.fireDeliver
	nic.OnReceive(p.onFrame)
}

func (e *endpoint) Stats() *Stats { return &e.stats }

func (e *endpoint) OnMessage(fn func(src netsim.Addr, msg Message)) { e.handler = fn }

func (e *endpoint) Send(dst netsim.Addr, msg Message) error {
	_, err := e.send(dst, msg)
	return err
}

// send admits msg under the next message id and schedules its launch
// after the per-message send overhead.
func (e *endpoint) send(dst netsim.Addr, msg Message) (uint64, error) {
	if msg.Bytes > MaxMessageBytes {
		return 0, ErrTooLarge
	}
	e.nextID++
	e.stats.Sent++
	e.sendQ.Push(outMsg{dst: dst, id: e.nextID, msg: msg})
	e.eng.After(e.sendOverhead, "transport.send", e.sendFn)
	return e.nextID, nil
}

func (e *endpoint) fireSend() { e.proto.launchMsg(e.sendQ.Pop()) }

// sendData encodes fragment i of message id and hands it to the NIC;
// the last fragment carries the application payload by reference. A
// header the NIC refuses is still ours and goes back to the pool.
func (e *endpoint) sendData(dst netsim.Addr, id uint64, i, total int, msg Message) {
	var payload any
	if i == total-1 {
		payload = msg.Payload
	}
	hdr := encodeData(e.hdrs, dataFrag{MsgID: id, Index: i, Total: total, Bytes: msg.Bytes})
	err := e.nic.Send(netsim.Frame{Dst: dst, Payload: payload, Buf: hdr, Bytes: fragWire(msg.Bytes, i), Span: msg.Span})
	if err != nil {
		hdr.Release()
	}
	e.stats.DataFrames++
}

func (e *endpoint) sendCtrl(dst netsim.Addr, m ctrlMsg) {
	hdr := encodeCtrl(e.hdrs, m)
	if err := e.nic.Send(netsim.Frame{Dst: dst, Buf: hdr, Bytes: headerBytes}); err != nil {
		hdr.Release()
	}
	e.stats.CtrlFrames++
}

// deliver counts rm's message delivered and hands it to the handler
// after the per-message receive overhead. The caller recycles rm.
func (e *endpoint) deliver(src netsim.Addr, rm *reasm) {
	e.stats.Delivered++
	e.deliverQ.Push(delivery{src: src, msg: rm.msg})
	e.eng.After(e.recvOverhead, "transport.deliver", e.deliverFn)
}

func (e *endpoint) fireDeliver() {
	d := e.deliverQ.Pop()
	if e.handler != nil {
		e.handler(d.src, d.msg)
	}
}
