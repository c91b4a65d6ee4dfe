package transport

import (
	"encoding/binary"
	"math/bits"
	"testing"

	"hyperion/internal/fault"
	"hyperion/internal/netsim"
	"hyperion/internal/sim"
	"hyperion/internal/wire"
)

// allReturned reports whether every Buf p has minted is back in its
// free list: as many Gets again mint nothing new.
func allReturned(p *wire.Pool) bool {
	minted := p.News
	bufs := make([]*wire.Buf, 0, minted)
	for range minted {
		bufs = append(bufs, p.Get(1))
	}
	for _, b := range bufs {
		b.Release()
	}
	return p.News == minted
}

// TestGoBackNUnderFaults: two senders send 200 messages each, of 1 B
// to 64 KiB, to one receiver through a switch that drops, corrupts and
// reorders frames. Every message arrives exactly once, in send order
// per sender, the rings drain, and every wire.Buf — headers and
// payloads — goes back to its pool.
func TestGoBackNUnderFaults(t *testing.T) {
	for _, kind := range []Kind{TCP, RDMA} {
		for _, rate := range []float64{0.01, 0.05} {
			eng := sim.NewEngine(1)
			net := netsim.New(eng, netsim.DefaultConfig())
			net.SetFaultPlan(fault.NewPlan(3, "netsim").Set(fault.Drop, rate).Set(fault.Corrupt, rate).Set(fault.Reorder, rate))
			rxNIC, _ := net.Attach("rx")
			rx := New(eng, kind, rxNIC)
			payloads := wire.NewPool(8)
			const senders, perSender = 2, 200
			var next [senders]int
			rx.OnMessage(func(_ netsim.Addr, m Message) {
				buf := m.Payload.(*wire.Buf)
				s, i := buf.Bytes()[0], int(binary.BigEndian.Uint32(buf.Bytes()[1:]))
				if i != next[s] {
					t.Errorf("%v at %v: sender %d delivered message %d, want %d", kind, rate, s, i, next[s])
				}
				next[s] = i + 1
				buf.Release()
			})
			eps := []Endpoint{rx}
			r := sim.NewRand(1)
			for s := range senders {
				nic, _ := net.Attach(netsim.Addr(rune('a' + s)))
				eps = append(eps, New(eng, kind, nic))
			}
			for i := range perSender {
				for s, tx := range eps[1:] {
					buf := payloads.Get(5)
					buf.Bytes()[0] = byte(s)
					binary.BigEndian.PutUint32(buf.Bytes()[1:], uint32(i))
					if err := tx.Send("rx", Message{Payload: buf, Bytes: 1 + r.Intn(64<<10)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			eng.Run()
			if next != [senders]int{perSender, perSender} || net.FaultDrops == 0 || net.FaultCorrupts == 0 || net.FaultReorders == 0 {
				t.Fatalf("%v at %v: delivered %v of %d each; %d drops, %d corrupts, %d reorders",
					kind, rate, next, perSender, net.FaultDrops, net.FaultCorrupts, net.FaultReorders)
			}
			for _, ep := range eps {
				rel := ep.(*reliableEndpoint)
				if !allReturned(rel.hdrs) {
					t.Errorf("%v at %v: an endpoint's header Bufs were not all released", kind, rate)
				}
				for _, c := range rel.conns {
					if c.base != c.nextSeq {
						t.Errorf("%v at %v: ring still holds seqs [%d, %d)", kind, rate, c.base, c.nextSeq)
					}
				}
			}
			if !allReturned(payloads) {
				t.Errorf("%v at %v: payload Bufs were not all released", kind, rate)
			}
		}
	}
}

// TestRingTracksBacklog: after a 1 000-message burst on one connection
// drains, its ring is no larger than the next power of two at or above
// the peak backlog, and holds no fragment. The messages are issued
// 1 µs apart, so acks retire fragments while the burst is still
// arriving and the backlog stays far below the traffic.
func TestRingTracksBacklog(t *testing.T) {
	eng, _, a, b := rig(t, RDMA)
	b.OnMessage(func(netsim.Addr, Message) {})
	r := sim.NewRand(1)
	for i := range 1000 {
		size := 1 + r.Intn(8<<10)
		eng.At(sim.Time(i)*sim.Time(sim.Microsecond), "send", func() {
			if err := a.Send("b", Message{Bytes: size}); err != nil {
				t.Error(err)
			}
		})
	}
	var c *sendConn
	peak := uint64(0)
	for eng.Step() {
		if c = a.(*reliableEndpoint).conns["b"]; c != nil {
			peak = max(peak, c.nextSeq-c.base)
		}
	}
	if c.base != c.nextSeq || c.nextSeq < 1000 || c.nextSeq < 8*peak {
		t.Fatalf("seqs [%d, %d) after the burst, peak backlog %d: not drained, or no wrap", c.base, c.nextSeq, peak)
	}
	if limit := 1 << bits.Len64(peak-1); len(c.ring) > limit {
		t.Fatalf("ring of %d slots after a peak backlog of %d, want at most %d", len(c.ring), peak, limit)
	}
	for i, of := range c.ring {
		if of != (outFrag{}) {
			t.Fatalf("drained ring keeps slot %d: %+v", i, of)
		}
	}
}
