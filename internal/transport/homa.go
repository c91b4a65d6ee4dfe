package transport

import (
	"hyperion/internal/netsim"
	"hyperion/internal/sim"
)

// Homa-like transport: message-oriented, receiver-driven. The first
// unschedFrags fragments of a message are sent blindly (covering one
// bandwidth-delay product); the rest are released by GRANTs that the
// receiver issues to the inbound message with the fewest remaining
// fragments (SRPT). This keeps switch queues short under incast and
// favours short messages — the properties the paper cites Homa for.

const (
	unschedFrags = 16 // ≈64 KiB: one 100 GbE BDP at rack RTTs
	grantWindow  = 16 // granted frags kept in flight beyond received
	homaRTO      = 500 * sim.Microsecond
	homaOverhead = 500 * sim.Nanosecond // per message, each side
	// homaDoneLinger is how long a receiver remembers a message it
	// delivered. A sender whose done was lost re-offers fragment 0
	// every homaRTO until it hears one, and each re-offer is answered
	// with done again: at 20 % drop and 20 % corruption, all 64 round
	// trips fail with probability about 10⁻¹⁵.
	homaDoneLinger = 64 * homaRTO
)

type homaEndpoint struct {
	endpoint
	outbound map[uint64]*homaSend
	inbound  map[msgKey]*homaRecv
	sends    sim.FreeList[homaSend]
	recvs    sim.FreeList[homaRecv]

	// delivered holds the messages completed here within about the
	// last homaDoneLinger, doneQ the same keys in completion order; a
	// late fragment of one is answered with done, never reassembled
	// again. Entries expire as later messages complete, so remembering
	// schedules no event.
	delivered map[msgKey]struct{}
	doneQ     sim.Queue[doneRec]

	// Every sender timer has the same period, so live message ids
	// queue in firing order.
	rtoQ  sim.Queue[uint64]
	rtoFn func()

	ctrlScratch []int // reused by decodeCtrl for resend missing lists
	missing     []int // reused for the resend lists this receiver asks
}

type homaSend struct {
	outMsg
	total    int
	sent     int  // frags transmitted (first pass)
	granted  int  // frags the receiver has released
	progress bool // grant/resend seen since last sender RTO
}

type homaRecv struct {
	reasm
	key      msgKey
	received []bool // by fragment index
	granted  int
	lastAct  sim.Time
	timer    sim.EventRef
	timerFn  func() // prebound fireRecvRTO, kept across recycles
}

type doneRec struct {
	key msgKey
	at  sim.Time
}

func newHoma(eng *sim.Engine, nic *netsim.NIC) *homaEndpoint {
	h := &homaEndpoint{
		outbound:  make(map[uint64]*homaSend),
		inbound:   make(map[msgKey]*homaRecv),
		delivered: make(map[msgKey]struct{}),
	}
	h.init(eng, nic, homaOverhead, homaOverhead, h)
	h.rtoFn = h.fireSendRTO
	return h
}

// Send arms the sender timer with the message: it covers the case
// where every unscheduled fragment is dropped, so the receiver has no
// state and cannot request a resend. The sender then re-offers
// fragment 0 until it hears a grant, a resend request or completion.
func (h *homaEndpoint) Send(dst netsim.Addr, msg Message) error {
	id, err := h.send(dst, msg)
	if err == nil {
		h.armSendRTO(id)
	}
	return err
}

func (h *homaEndpoint) launchMsg(o outMsg) {
	s, _ := h.sends.Get()
	*s = homaSend{outMsg: o, total: fragsFor(o.msg.Bytes), granted: unschedFrags}
	h.outbound[s.id] = s
	h.pump(s)
}

func (h *homaEndpoint) armSendRTO(id uint64) {
	h.rtoQ.Push(id)
	h.eng.After(homaRTO, "homa.sendrto", h.rtoFn)
}

func (h *homaEndpoint) fireSendRTO() {
	id := h.rtoQ.Pop()
	s, live := h.outbound[id]
	if !live {
		return
	}
	if !s.progress && s.sent > 0 {
		h.sendFrag(s, 0)
		h.stats.Retransmits++
	}
	s.progress = false
	h.armSendRTO(id)
}

// pump transmits fragments up to the granted horizon.
func (h *homaEndpoint) pump(s *homaSend) {
	for limit := min(s.granted, s.total); s.sent < limit; s.sent++ {
		h.sendFrag(s, s.sent)
	}
}

func (h *homaEndpoint) sendFrag(s *homaSend, i int) { h.sendData(s.dst, s.id, i, s.total, s.msg) }

func (h *homaEndpoint) onFrame(f netsim.Frame) {
	switch frameKind(f) {
	case frameData:
		h.onData(f.Src, decodeData(f))
	case frameCtrl:
		pl := decodeCtrl(f.Buf.Bytes(), h.ctrlScratch[:0])
		if pl.Missing != nil {
			h.ctrlScratch = pl.Missing[:0]
		}
		s, ok := h.outbound[pl.MsgID]
		if !ok {
			return
		}
		switch pl.Op {
		case grantOp:
			s.progress = true
			if int(pl.Seq) > s.granted {
				s.granted = int(pl.Seq)
				h.pump(s)
			}
		case doneOp:
			delete(h.outbound, pl.MsgID)
			*s = homaSend{}
			h.sends.Put(s)
		case resendOp:
			s.progress = true
			for _, i := range pl.Missing {
				if i >= 0 && i < s.total {
					h.sendFrag(s, i)
					h.stats.Retransmits++
				}
			}
		}
	}
}

func (h *homaEndpoint) onData(src netsim.Addr, frag dataFrag) {
	key := msgKey{src, frag.MsgID}
	r, ok := h.inbound[key]
	if !ok {
		if _, done := h.delivered[key]; done {
			// A late fragment: the sender has not heard our done.
			h.sendCtrl(src, ctrlMsg{Op: doneOp, MsgID: frag.MsgID})
			return
		}
		r = h.newRecv(key, frag)
	}
	if r.received[frag.Index] {
		return
	}
	r.received[frag.Index] = true
	r.lastAct = h.eng.Now()
	if !r.add(frag) {
		h.grantSRPT()
		return
	}
	h.eng.Cancel(r.timer)
	r.timer = sim.NoEvent
	h.sendCtrl(src, ctrlMsg{Op: doneOp, MsgID: frag.MsgID})
	delete(h.inbound, key)
	h.deliver(src, &r.reasm)
	h.remember(key)
	*r = homaRecv{received: r.received[:0], timerFn: r.timerFn}
	h.recvs.Put(r)
}

// newRecv starts reassembling frag's message and arms its timer.
func (h *homaEndpoint) newRecv(key msgKey, frag dataFrag) *homaRecv {
	r, fresh := h.recvs.Get()
	if fresh {
		r.timerFn = func() { h.fireRecvRTO(r) }
	}
	r.start(frag)
	r.key, r.granted = key, unschedFrags
	if cap(r.received) < r.total {
		r.received = make([]bool, r.total)
	}
	r.received = r.received[:r.total]
	clear(r.received)
	h.inbound[key] = r
	h.armRecvRTO(r)
	return r
}

// remember records key as delivered now and forgets the records older
// than homaDoneLinger.
func (h *homaEndpoint) remember(key msgKey) {
	now := h.eng.Now()
	for h.doneQ.Len() > 0 && now.Sub(h.doneQ.Peek().at) >= homaDoneLinger {
		delete(h.delivered, h.doneQ.Pop().key)
	}
	h.delivered[key] = struct{}{}
	h.doneQ.Push(doneRec{key: key, at: now})
}

// grantSRPT releases more fragments for the inbound message with the
// fewest remaining fragments (shortest remaining processing time).
func (h *homaEndpoint) grantSRPT() {
	var best *homaRecv
	bestRem := int(^uint(0) >> 1)
	//hyperlint:allow(maprange) selection is totally ordered by (remaining, id, src): senders number their messages independently, so only the key breaks every tie and the winner is independent of visit order
	for _, r := range h.inbound {
		if r.granted >= r.total {
			continue
		}
		rem := r.total - r.have
		if rem < bestRem || (rem == bestRem && best != nil && r.key.less(best.key)) {
			bestRem = rem
			best = r
		}
	}
	if best == nil {
		return
	}
	if want := min(best.have+grantWindow, best.total); want > best.granted {
		best.granted = want
		h.sendCtrl(best.key.src, ctrlMsg{Op: grantOp, MsgID: best.key.id, Seq: uint64(want)})
	}
}

// armRecvRTO installs the loss-recovery timer. The period is jittered
// so concurrent inbound messages do not synchronize their recovery
// bursts.
func (h *homaEndpoint) armRecvRTO(r *homaRecv) {
	period := homaRTO + h.eng.Rand().Duration(0, homaRTO/4)
	r.timer = h.eng.After(period, "homa.rto", r.timerFn)
}

// fireRecvRTO: if r stalled, name the exact fragments still missing
// (capped per round) so the sender retransmits only those, and refresh
// the grant in case it was dropped.
func (h *homaEndpoint) fireRecvRTO(r *homaRecv) {
	if h.eng.Now().Sub(r.lastAct) >= homaRTO {
		missing := h.missing[:0]
		for i := 0; i < min(r.granted, r.total) && len(missing) < grantWindow; i++ {
			if !r.received[i] {
				missing = append(missing, i)
			}
		}
		h.missing = missing
		if len(missing) > 0 {
			h.sendCtrl(r.key.src, ctrlMsg{Op: resendOp, MsgID: r.key.id, Missing: missing})
		} else if r.granted < r.total {
			// Everything granted has arrived but the grant itself may
			// have been lost; re-issue it.
			h.sendCtrl(r.key.src, ctrlMsg{Op: grantOp, MsgID: r.key.id, Seq: uint64(min(r.total, r.have+grantWindow))})
		}
	}
	h.armRecvRTO(r)
}
