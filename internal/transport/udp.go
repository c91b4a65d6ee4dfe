package transport

import (
	"hyperion/internal/netsim"
	"hyperion/internal/sim"
	"hyperion/internal/wire"
)

// udpEndpoint is fire-and-forget: fragments go straight to the NIC; a
// message whose fragments all arrive is delivered, anything else is
// garbage-collected after a timeout and counted lost.
type udpEndpoint struct {
	eng   *sim.Engine
	nic   *netsim.NIC
	stats Stats

	sendOverhead sim.Duration
	recvOverhead sim.Duration
	reasmTimeout sim.Duration

	nextID  uint64
	handler func(src netsim.Addr, msg Message)
	partial map[udpKey]*reasm

	hdrs   *wire.Pool
	reasms sim.FreeList[reasm]

	// Pending-event queues with prebound fire functions: each queue's
	// events share one fixed delay, so pop order matches push order.
	sendQ     sim.Queue[udpSend]
	gcQ       sim.Queue[udpKey]
	deliverQ  sim.Queue[delivery]
	sendFn    func()
	gcFn      func()
	deliverFn func()
}

type udpKey struct {
	src netsim.Addr
	id  uint64
}

type udpSend struct {
	dst   netsim.Addr
	id    uint64
	total int
	msg   Message
}

// delivery is one reassembled message awaiting its receive-overhead
// event (shared with the reliable transports).
type delivery struct {
	src netsim.Addr
	msg Message
}

func newUDP(eng *sim.Engine, nic *netsim.NIC) *udpEndpoint {
	u := &udpEndpoint{
		eng:          eng,
		nic:          nic,
		sendOverhead: sim.Microsecond,
		recvOverhead: sim.Microsecond,
		reasmTimeout: 10 * sim.Millisecond,
		partial:      make(map[udpKey]*reasm),
		hdrs:         wire.NewPool(dataHdrLen),
	}
	u.sendFn = u.fireSend
	u.gcFn = u.fireGC
	u.deliverFn = u.fireDeliver
	nic.OnReceive(u.onFrame)
	return u
}

func (u *udpEndpoint) Stats() *Stats { return &u.stats }

func (u *udpEndpoint) OnMessage(fn func(src netsim.Addr, msg Message)) { u.handler = fn }

func (u *udpEndpoint) Send(dst netsim.Addr, msg Message) error {
	if msg.Bytes > MaxMessageBytes {
		return ErrTooLarge
	}
	u.nextID++
	u.stats.Sent++
	u.sendQ.Push(udpSend{dst: dst, id: u.nextID, total: fragsFor(msg.Bytes), msg: msg})
	u.eng.After(u.sendOverhead, "udp.send", u.sendFn)
	return nil
}

func (u *udpEndpoint) fireSend() {
	s := u.sendQ.Pop()
	for i := 0; i < s.total; i++ {
		frag := dataFrag{MsgID: s.id, Index: i, Total: s.total, Bytes: s.msg.Bytes}
		var payload any
		if i == s.total-1 {
			payload = s.msg.Payload
		}
		// Send errors mean the frame never left; UDP doesn't care — but
		// the wire buffer stays ours on error and must go back.
		hdr := encodeData(u.hdrs, frag)
		err := u.nic.Send(netsim.Frame{
			Dst: s.dst, Payload: payload, Buf: hdr,
			Bytes: fragWire(s.msg.Bytes, i), Span: s.msg.Span,
		})
		if err != nil {
			hdr.Release()
		}
		u.stats.DataFrames++
	}
}

func (u *udpEndpoint) onFrame(f netsim.Frame) {
	if frameKind(f) != frameData {
		return
	}
	frag := decodeData(f)
	key := udpKey{f.Src, frag.MsgID}
	r, ok := u.partial[key]
	if !ok {
		r, _ = u.reasms.Get()
		*r = reasm{total: frag.Total, bytes: frag.Bytes, span: frag.Span}
		u.partial[key] = r
		// Garbage-collect incomplete messages: that is UDP loss.
		u.gcQ.Push(key)
		u.eng.After(u.reasmTimeout, "udp.gc", u.gcFn)
	}
	r.have++
	if frag.Payload != nil {
		r.payload = frag.Payload
	}
	if r.have == r.total {
		delete(u.partial, key)
		u.stats.Delivered++
		u.deliverQ.Push(delivery{src: f.Src, msg: Message{Payload: r.payload, Bytes: r.bytes, Span: r.span}})
		r.payload = nil
		u.reasms.Put(r)
		u.eng.After(u.recvOverhead, "udp.deliver", u.deliverFn)
	}
}

func (u *udpEndpoint) fireGC() {
	key := u.gcQ.Pop()
	if r, still := u.partial[key]; still && r.have < r.total {
		delete(u.partial, key)
		r.payload = nil
		u.reasms.Put(r)
		u.stats.LostMessages++
	}
}

func (u *udpEndpoint) fireDeliver() {
	d := u.deliverQ.Pop()
	if u.handler != nil {
		u.handler(d.src, d.msg)
	}
}
