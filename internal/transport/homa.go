package transport

import (
	"hyperion/internal/netsim"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
	"hyperion/internal/wire"
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
)

type homaEndpoint struct {
	eng   *sim.Engine
	nic   *netsim.NIC
	stats Stats

	handler  func(src netsim.Addr, msg Message)
	nextID   uint64
	outbound map[uint64]*homaSend
	inbound  map[homaKey]*homaRecv
	overhead sim.Duration

	hdrs        *wire.Pool
	ctrlScratch []int // reused by decodeCtrl for resend missing lists

	deliverQ  sim.Queue[delivery]
	deliverFn func()
}

type homaKey struct {
	src netsim.Addr
	id  uint64
}

type homaSend struct {
	dst      netsim.Addr
	id       uint64
	bytes    int
	payload  any
	total    int
	sent     int  // frags transmitted (first pass)
	granted  int  // frags the receiver has released
	progress bool // grant/done seen since last sender RTO
	span     telemetry.RequestID
}

type homaRecv struct {
	src      netsim.Addr
	id       uint64
	total    int
	bytes    int
	payload  any
	received map[int]bool
	granted  int
	lastAct  sim.Time
	timer    sim.EventRef
	done     bool
	span     telemetry.RequestID
}

func newHoma(eng *sim.Engine, nic *netsim.NIC) *homaEndpoint {
	h := &homaEndpoint{
		eng:      eng,
		nic:      nic,
		outbound: make(map[uint64]*homaSend),
		inbound:  make(map[homaKey]*homaRecv),
		overhead: 500 * sim.Nanosecond,
		hdrs:     wire.NewPool(dataHdrLen),
	}
	h.deliverFn = h.fireDeliver
	nic.OnReceive(h.onFrame)
	return h
}

func (h *homaEndpoint) Addr() netsim.Addr { return h.nic.Addr }
func (h *homaEndpoint) Kind() Kind        { return Homa }
func (h *homaEndpoint) Stats() *Stats     { return &h.stats }

func (h *homaEndpoint) OnMessage(fn func(src netsim.Addr, msg Message)) { h.handler = fn }

func (h *homaEndpoint) Send(dst netsim.Addr, msg Message) error {
	if msg.Bytes > MaxMessageBytes {
		return ErrTooLarge
	}
	h.nextID++
	s := &homaSend{
		dst:     dst,
		id:      h.nextID,
		bytes:   msg.Bytes,
		payload: msg.Payload,
		total:   fragsFor(msg.Bytes),
		granted: unschedFrags,
		span:    msg.Span,
	}
	h.outbound[s.id] = s
	h.stats.Sent++
	h.eng.After(h.overhead, "homa.send", func() { h.pump(s) })
	h.armSendTimer(s)
	return nil
}

// armSendTimer covers the case where every unscheduled fragment of a
// message is dropped: the receiver then has no state and cannot request
// a resend, so the sender must re-offer fragment 0 until it hears a
// grant or completion.
func (h *homaEndpoint) armSendTimer(s *homaSend) {
	h.eng.After(homaRTO, "homa.sendrto", func() {
		if _, live := h.outbound[s.id]; !live {
			return
		}
		if !s.progress && s.sent > 0 {
			h.sendFrag(s, 0)
			h.stats.Retransmits++
		}
		s.progress = false
		h.armSendTimer(s)
	})
}

// pump transmits fragments up to the granted horizon.
func (h *homaEndpoint) pump(s *homaSend) {
	limit := s.granted
	if limit > s.total {
		limit = s.total
	}
	for ; s.sent < limit; s.sent++ {
		h.sendFrag(s, s.sent)
	}
}

func (h *homaEndpoint) sendFrag(s *homaSend, i int) {
	frag := dataFrag{MsgID: s.id, Index: i, Total: s.total, Bytes: s.bytes}
	var payload any
	if i == s.total-1 {
		payload = s.payload
	}
	hdr := encodeData(h.hdrs, frag)
	err := h.nic.Send(netsim.Frame{Dst: s.dst, Payload: payload, Buf: hdr, Bytes: fragWire(s.bytes, i), Span: s.span})
	if err != nil {
		hdr.Release()
	}
	h.stats.DataFrames++
}

func (h *homaEndpoint) onFrame(f netsim.Frame) {
	switch frameKind(f) {
	case frameData:
		h.onData(f.Src, decodeData(f))
	case frameCtrl:
		pl := decodeCtrl(f.Buf.Bytes(), h.ctrlScratch[:0])
		if pl.Missing != nil {
			h.ctrlScratch = pl.Missing[:0]
		}
		switch pl.Op {
		case grantOp:
			if s, ok := h.outbound[pl.MsgID]; ok {
				s.progress = true
				if int(pl.Seq) > s.granted {
					s.granted = int(pl.Seq)
					h.pump(s)
				}
			}
		case doneOp:
			delete(h.outbound, pl.MsgID)
		case resendOp:
			if s, ok := h.outbound[pl.MsgID]; ok {
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
}

func (h *homaEndpoint) onData(src netsim.Addr, frag dataFrag) {
	key := homaKey{src, frag.MsgID}
	r, ok := h.inbound[key]
	if !ok {
		r = &homaRecv{
			src:      src,
			id:       frag.MsgID,
			total:    frag.Total,
			bytes:    frag.Bytes,
			received: make(map[int]bool),
			granted:  unschedFrags,
			span:     frag.Span,
		}
		h.inbound[key] = r
		h.armTimer(key, r)
	}
	if r.done || r.received[frag.Index] {
		return
	}
	r.received[frag.Index] = true
	r.lastAct = h.eng.Now()
	if frag.Payload != nil {
		r.payload = frag.Payload
	}
	if len(r.received) == r.total {
		r.done = true
		h.eng.Cancel(r.timer)
		r.timer = sim.NoEvent
		h.sendCtrl(src, ctrlMsg{Op: doneOp, MsgID: r.id})
		delete(h.inbound, key)
		h.stats.Delivered++
		h.deliverQ.Push(delivery{src: src, msg: Message{Payload: r.payload, Bytes: r.bytes, Span: r.span}})
		h.eng.After(h.overhead, "homa.deliver", h.deliverFn)
		return
	}
	h.grantSRPT()
}

// grantSRPT releases more fragments for the inbound message with the
// fewest remaining fragments (shortest remaining processing time).
func (h *homaEndpoint) grantSRPT() {
	var best *homaRecv
	bestRem := int(^uint(0) >> 1)
	//hyperlint:allow(maprange) selection is totally ordered by (remaining, id): the id tie-break makes the winner independent of visit order
	for _, r := range h.inbound {
		if r.done || r.granted >= r.total {
			continue
		}
		rem := r.total - len(r.received)
		if rem < bestRem || (rem == bestRem && best != nil && r.id < best.id) {
			bestRem = rem
			best = r
		}
	}
	if best == nil {
		return
	}
	want := len(best.received) + grantWindow
	if want > best.total {
		want = best.total
	}
	if want > best.granted {
		best.granted = want
		h.sendCtrl(best.src, ctrlMsg{Op: grantOp, MsgID: best.id, Seq: uint64(want)})
	}
}

// armTimer installs the loss-recovery timer: if a message stalls, name
// the exact fragments still missing (capped per round) so the sender
// retransmits only those, and refresh the grant in case it was dropped.
// The period is jittered so concurrent inbound messages do not
// synchronize their recovery bursts.
func (h *homaEndpoint) armTimer(key homaKey, r *homaRecv) {
	period := homaRTO + h.eng.Rand().Duration(0, homaRTO/4)
	r.timer = h.eng.After(period, "homa.rto", func() {
		if r.done {
			return
		}
		if h.eng.Now().Sub(r.lastAct) >= homaRTO {
			horizon := r.granted
			if horizon > r.total {
				horizon = r.total
			}
			var missing []int
			for i := 0; i < horizon && len(missing) < grantWindow; i++ {
				if !r.received[i] {
					missing = append(missing, i)
				}
			}
			if len(missing) > 0 {
				h.sendCtrl(r.src, ctrlMsg{Op: resendOp, MsgID: r.id, Missing: missing})
			} else if r.granted < r.total {
				// Everything granted has arrived but the grant itself may
				// have been lost; re-issue it.
				h.sendCtrl(r.src, ctrlMsg{Op: grantOp, MsgID: r.id, Seq: uint64(minInt(r.total, len(r.received)+grantWindow))})
			}
		}
		h.armTimer(key, r)
	})
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (h *homaEndpoint) fireDeliver() {
	d := h.deliverQ.Pop()
	if h.handler != nil {
		h.handler(d.src, d.msg)
	}
}

func (h *homaEndpoint) sendCtrl(dst netsim.Addr, m ctrlMsg) {
	hdr := encodeCtrl(h.hdrs, m)
	if err := h.nic.Send(netsim.Frame{Dst: dst, Buf: hdr, Bytes: headerBytes}); err != nil {
		hdr.Release()
	}
	h.stats.CtrlFrames++
}
