package transport

import (
	"hyperion/internal/netsim"
	"hyperion/internal/sim"
)

// UDP's costs: a software stack on each side, and how long a partial
// message waits for its missing fragments.
const (
	udpOverhead     = sim.Microsecond
	udpReasmTimeout = 10 * sim.Millisecond
)

// udpEndpoint is fire-and-forget: fragments go straight to the NIC; a
// message whose fragments all arrive is delivered, anything else is
// garbage-collected after a timeout and counted lost.
type udpEndpoint struct {
	endpoint
	partial map[msgKey]*reasm
	reasms  sim.FreeList[reasm]

	// Every partial message waits the same timeout, so pop order
	// matches push order.
	gcQ  sim.Queue[msgKey]
	gcFn func()
}

func newUDP(eng *sim.Engine, nic *netsim.NIC) *udpEndpoint {
	u := &udpEndpoint{partial: make(map[msgKey]*reasm)}
	u.init(eng, nic, udpOverhead, udpOverhead, u)
	u.gcFn = u.fireGC
	return u
}

func (u *udpEndpoint) launchMsg(o outMsg) {
	total := fragsFor(o.msg.Bytes)
	for i := range total {
		u.sendData(o.dst, o.id, i, total, o.msg)
	}
}

func (u *udpEndpoint) onFrame(f netsim.Frame) {
	if frameKind(f) != frameData {
		return
	}
	frag := decodeData(f)
	key := msgKey{f.Src, frag.MsgID}
	r, ok := u.partial[key]
	if !ok {
		r, _ = u.reasms.Get()
		r.start(frag)
		u.partial[key] = r
		// Garbage-collect incomplete messages: that is UDP loss.
		u.gcQ.Push(key)
		u.eng.After(udpReasmTimeout, "udp.gc", u.gcFn)
	}
	if r.add(frag) {
		delete(u.partial, key)
		u.deliver(f.Src, r)
		u.recycle(r)
	}
}

func (u *udpEndpoint) fireGC() {
	key := u.gcQ.Pop()
	if r, still := u.partial[key]; still {
		delete(u.partial, key)
		u.recycle(r)
		u.stats.LostMessages++
	}
}

func (u *udpEndpoint) recycle(r *reasm) {
	*r = reasm{}
	u.reasms.Put(r)
}
