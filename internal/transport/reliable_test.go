package transport

import (
	"math/bits"
	"testing"

	"hyperion/internal/netsim"
	"hyperion/internal/sim"
)

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
