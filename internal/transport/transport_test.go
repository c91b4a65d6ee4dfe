package transport

import (
	"encoding/binary"
	"fmt"
	"testing"

	"hyperion/internal/fault"
	"hyperion/internal/netsim"
	"hyperion/internal/sim"
	"hyperion/internal/wire"
)

// rig builds two endpoints of the same kind on a fresh network.
func rig(t testing.TB, kind Kind) (*sim.Engine, *netsim.Network, Endpoint, Endpoint) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := netsim.New(eng, netsim.DefaultConfig())
	na, err := net.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	nb, err := net.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	return eng, net, New(eng, kind, na), New(eng, kind, nb)
}

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

// headers returns ep's header pool.
func headers(ep Endpoint) *wire.Pool {
	switch e := ep.(type) {
	case *udpEndpoint:
		return e.hdrs
	case *reliableEndpoint:
		return e.hdrs
	case *homaEndpoint:
		return e.hdrs
	}
	panic("unknown endpoint")
}

// TestEveryKindUnderFaults: two senders send 150 messages each to one
// receiver through a switch that drops, corrupts and reorders frames.
// Every third message is 200 KiB, past Homa's unscheduled window; the
// rest are 1 B to 64 KiB. TCP and RDMA deliver every message exactly
// once, in send order per sender, and their rings drain; Homa delivers
// every message exactly once and forgets it on both sides; UDP
// delivers each at most once, counts no more delivered and lost than
// were sent, and leaves no partial message behind. Every run drains,
// every wire.Buf — headers and payloads — goes back to its pool (a
// payload UDP lost is still the sender's to release), and a second run
// takes the same number of events: two senders number their messages
// alike, so Homa's SRPT tie-break must order by sender too.
func TestEveryKindUnderFaults(t *testing.T) {
	for _, kind := range Kinds() {
		for _, rate := range []float64{0.01, 0.05, 0.2} {
			t.Run(fmt.Sprintf("%v/%v", kind, rate), func(t *testing.T) {
				if a, b := faultedRun(t, kind, rate), faultedRun(t, kind, rate); a != b {
					t.Fatalf("two runs took %d and %d steps", a, b)
				}
			})
		}
	}
}

// faultedRun is one run of TestEveryKindUnderFaults; it returns the
// number of events the engine ran.
func faultedRun(t *testing.T, kind Kind, rate float64) uint64 {
	const senders, perSender, maxSteps = 2, 150, 8_000_000
	eng := sim.NewEngine(1)
	net := netsim.New(eng, netsim.DefaultConfig())
	net.SetFaultPlan(fault.NewPlan(3, "netsim").Set(fault.Drop, rate).Set(fault.Corrupt, rate).Set(fault.Reorder, rate))
	rxNIC, _ := net.Attach("rx")
	eps := []Endpoint{New(eng, kind, rxNIC)}
	for s := range senders {
		nic, _ := net.Attach(netsim.Addr(rune('a' + s)))
		eps = append(eps, New(eng, kind, nic))
	}
	var got [senders][perSender]int
	var next [senders]int
	eps[0].OnMessage(func(_ netsim.Addr, m Message) {
		buf := m.Payload.(*wire.Buf)
		s, i := buf.Bytes()[0], int(binary.BigEndian.Uint32(buf.Bytes()[1:]))
		if got[s][i]++; got[s][i] == 1 {
			buf.Release()
		}
		if kind == TCP || kind == RDMA {
			if i != next[s] {
				t.Errorf("sender %d delivered message %d, want %d", s, i, next[s])
			}
			next[s] = i + 1
		}
	})
	payloads := wire.NewPool(8)
	var sent [senders][perSender]*wire.Buf
	r := sim.NewRand(1)
	for i := range perSender {
		for s, tx := range eps[1:] {
			size := 1 + r.Intn(64<<10)
			if i%3 == 2 {
				size = 200 << 10
			}
			buf := payloads.Get(5)
			buf.Bytes()[0] = byte(s)
			binary.BigEndian.PutUint32(buf.Bytes()[1:], uint32(i))
			sent[s][i] = buf
			if err := tx.Send("rx", Message{Payload: buf, Bytes: size}); err != nil {
				t.Fatal(err)
			}
		}
	}
	steps := 0
	for steps < maxSteps && eng.Step() {
		steps++
	}
	dups, lost := 0, 0
	for s := range senders {
		for i, n := range got[s] {
			dups += max(n-1, 0)
			if n == 0 {
				lost++
				sent[s][i].Release() // never delivered: still the sender's
			}
		}
	}
	if dups > 0 || lost > 0 && kind != UDP {
		t.Errorf("%d duplicate deliveries, %d messages never delivered", dups, lost)
	}
	if eng.Pending() > 0 {
		t.Fatalf("%d events still pending after %d steps", eng.Pending(), steps)
	}
	if net.FaultDrops == 0 || net.FaultCorrupts == 0 || net.FaultReorders == 0 {
		t.Fatalf("%d drops, %d corrupts, %d reorders", net.FaultDrops, net.FaultCorrupts, net.FaultReorders)
	}
	for _, ep := range eps {
		if !allReturned(headers(ep)) {
			t.Error("an endpoint's header Bufs were not all released")
		}
		switch e := ep.(type) {
		case *udpEndpoint:
			if st := e.Stats(); len(e.partial) > 0 || st.Delivered+st.LostMessages > senders*perSender {
				t.Errorf("%d partial messages left; %d delivered and %d lost of %d sent",
					len(e.partial), st.Delivered, st.LostMessages, senders*perSender)
			}
		case *reliableEndpoint:
			for _, c := range e.conns {
				if c.base != c.nextSeq {
					t.Errorf("ring still holds seqs [%d, %d)", c.base, c.nextSeq)
				}
			}
		case *homaEndpoint:
			if len(e.inbound) > 0 || len(e.outbound) > 0 {
				t.Errorf("%d inbound and %d outbound messages left", len(e.inbound), len(e.outbound))
			}
		}
	}
	if !allReturned(payloads) {
		t.Error("payload Bufs were not all released")
	}
	return eng.Steps()
}

func TestAllKindsDeliverSmallMessage(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			eng, _, a, b := rig(t, kind)
			var got []Message
			b.OnMessage(func(src netsim.Addr, m Message) {
				if src != "a" {
					t.Errorf("src = %s", src)
				}
				got = append(got, m)
			})
			if err := a.Send("b", Message{Payload: "ping", Bytes: 100}); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			if len(got) != 1 || got[0].Payload != "ping" {
				t.Fatalf("got %v", got)
			}
		})
	}
}

func TestAllKindsDeliverLargeMessage(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			eng, _, a, b := rig(t, kind)
			const size = 1 << 20
			var got int
			b.OnMessage(func(_ netsim.Addr, m Message) {
				if m.Bytes != size || m.Payload != "bulk" {
					t.Errorf("bad message %v", m.Bytes)
				}
				got++
			})
			if err := a.Send("b", Message{Payload: "bulk", Bytes: size}); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			if got != 1 {
				t.Fatalf("delivered %d", got)
			}
		})
	}
}

func TestTooLargeRejected(t *testing.T) {
	for _, kind := range Kinds() {
		_, _, a, _ := rig(t, kind)
		if err := a.Send("b", Message{Bytes: MaxMessageBytes + 1}); err != ErrTooLarge {
			t.Fatalf("%v: err = %v, want ErrTooLarge", kind, err)
		}
	}
}

func TestManyMessagesInOrderReliable(t *testing.T) {
	for _, kind := range []Kind{TCP, RDMA, Homa} {
		t.Run(kind.String(), func(t *testing.T) {
			eng, _, a, b := rig(t, kind)
			// Payloads ride as *wire.Buf so ordering is verified on the
			// zero-copy representation the rpc layer actually sends.
			pool := wire.NewPool(8)
			var got []int
			b.OnMessage(func(_ netsim.Addr, m Message) {
				buf := m.Payload.(*wire.Buf)
				got = append(got, int(binary.LittleEndian.Uint32(buf.Bytes())))
				buf.Release()
			})
			const n = 200
			for i := 0; i < n; i++ {
				buf := pool.Get(4)
				binary.LittleEndian.PutUint32(buf.Bytes(), uint32(i))
				if err := a.Send("b", Message{Payload: buf, Bytes: 4096}); err != nil {
					t.Fatal(err)
				}
			}
			eng.Run()
			if len(got) != n {
				t.Fatalf("delivered %d/%d (stats %+v)", len(got), n, *a.Stats())
			}
			if kind != Homa { // Homa does not guarantee cross-message ordering
				for i, v := range got {
					if v != i {
						t.Fatalf("out of order at %d: %d", i, v)
					}
				}
			}
		})
	}
}

func TestRelativeLatency(t *testing.T) {
	// RDMA must beat TCP on small-message latency (hardware vs software
	// overheads); that ordering is what E14 sweeps.
	lat := func(kind Kind) sim.Duration {
		eng, _, a, b := rig(t, kind)
		var done sim.Time
		b.OnMessage(func(netsim.Addr, Message) { done = eng.Now() })
		_ = a.Send("b", Message{Payload: 1, Bytes: 4096})
		eng.Run()
		return done.Sub(0)
	}
	tcp, rdma, homa := lat(TCP), lat(RDMA), lat(Homa)
	if rdma >= tcp {
		t.Fatalf("rdma %v not faster than tcp %v", rdma, tcp)
	}
	if homa >= tcp {
		t.Fatalf("homa %v not faster than tcp %v", homa, tcp)
	}
}

func TestReliableRecoversFromIncastLoss(t *testing.T) {
	// Many senders blast one receiver; the switch queue drops frames.
	// Reliable transports must still deliver every message.
	for _, kind := range []Kind{TCP, RDMA, Homa} {
		t.Run(kind.String(), func(t *testing.T) {
			eng := sim.NewEngine(1)
			cfg := netsim.DefaultConfig()
			cfg.QueueFrames = 16 // shallow buffer to force drops
			net := netsim.New(eng, cfg)
			const senders = 8
			const perSender = 4
			rxNIC, _ := net.Attach("rx")
			rx := New(eng, kind, rxNIC)
			delivered := 0
			rx.OnMessage(func(netsim.Addr, Message) { delivered++ })
			for i := 0; i < senders; i++ {
				nic, _ := net.Attach(netsim.Addr(rune('a' + i)))
				tx := New(eng, kind, nic)
				for j := 0; j < perSender; j++ {
					if err := tx.Send("rx", Message{Payload: j, Bytes: 256 << 10}); err != nil {
						t.Fatal(err)
					}
				}
			}
			eng.RunUntil(sim.Time(2 * sim.Second))
			if delivered != senders*perSender {
				t.Fatalf("delivered %d/%d (drops=%d)", delivered, senders*perSender, net.Drops)
			}
		})
	}
}

func TestHomaFewerDropsThanRDMAUnderIncast(t *testing.T) {
	// Receiver-driven pacing keeps switch queues shorter: Homa should
	// suffer fewer drops than a window-blasting transport.
	run := func(kind Kind) int64 {
		eng := sim.NewEngine(1)
		cfg := netsim.DefaultConfig()
		cfg.QueueFrames = 32
		net := netsim.New(eng, cfg)
		rxNIC, _ := net.Attach("rx")
		rx := New(eng, kind, rxNIC)
		rx.OnMessage(func(netsim.Addr, Message) {})
		for i := 0; i < 16; i++ {
			nic, _ := net.Attach(netsim.Addr(rune('a' + i)))
			tx := New(eng, kind, nic)
			_ = tx.Send("rx", Message{Payload: i, Bytes: 1 << 20})
		}
		eng.RunUntil(sim.Time(sim.Second))
		return net.Drops
	}
	homaDrops, rdmaDrops := run(Homa), run(RDMA)
	if homaDrops >= rdmaDrops {
		t.Fatalf("homa drops %d not below rdma drops %d", homaDrops, rdmaDrops)
	}
}

func TestUDPLosesUnderCongestionAndCountsIt(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := netsim.DefaultConfig()
	cfg.QueueFrames = 8
	net := netsim.New(eng, cfg)
	rxNIC, _ := net.Attach("rx")
	rx := New(eng, UDP, rxNIC)
	delivered := 0
	rx.OnMessage(func(netsim.Addr, Message) { delivered++ })
	var txs []Endpoint
	for i := 0; i < 8; i++ {
		nic, _ := net.Attach(netsim.Addr(rune('a' + i)))
		txs = append(txs, New(eng, UDP, nic))
	}
	const per = 20
	for _, tx := range txs {
		for j := 0; j < per; j++ {
			_ = tx.Send("rx", Message{Payload: j, Bytes: 64 << 10})
		}
	}
	eng.Run()
	if net.Drops == 0 {
		t.Skip("no congestion induced; adjust parameters")
	}
	if delivered == 8*per {
		t.Fatal("UDP delivered everything despite switch drops")
	}
	if rx.Stats().LostMessages == 0 {
		t.Fatal("lost messages not accounted")
	}
}

func TestTCPRetransmitsAreCounted(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := netsim.DefaultConfig()
	cfg.QueueFrames = 4
	net := netsim.New(eng, cfg)
	rxNIC, _ := net.Attach("rx")
	rx := New(eng, TCP, rxNIC)
	got := 0
	rx.OnMessage(func(netsim.Addr, Message) { got++ })
	nic1, _ := net.Attach("s1")
	nic2, _ := net.Attach("s2")
	t1, t2 := New(eng, TCP, nic1), New(eng, TCP, nic2)
	_ = t1.Send("rx", Message{Bytes: 512 << 10})
	_ = t2.Send("rx", Message{Bytes: 512 << 10})
	eng.RunUntil(sim.Time(sim.Second))
	if got != 2 {
		t.Fatalf("delivered %d/2", got)
	}
	if net.Drops > 0 && t1.Stats().Retransmits+t2.Stats().Retransmits == 0 {
		t.Fatal("drops occurred but no retransmits counted")
	}
}

func TestHomaSRPTFavorsShortMessages(t *testing.T) {
	// A short message arriving while a long one is in flight should
	// finish well before the long one.
	eng := sim.NewEngine(1)
	net := netsim.New(eng, netsim.DefaultConfig())
	rxNIC, _ := net.Attach("rx")
	rx := New(eng, Homa, rxNIC)
	finish := map[int]sim.Time{}
	rx.OnMessage(func(_ netsim.Addr, m Message) { finish[m.Payload.(int)] = eng.Now() })
	nicL, _ := net.Attach("long")
	nicS, _ := net.Attach("short")
	long := New(eng, Homa, nicL)
	short := New(eng, Homa, nicS)
	_ = long.Send("rx", Message{Payload: 1, Bytes: 8 << 20})
	eng.RunUntil(eng.Now().Add(20 * sim.Microsecond))
	_ = short.Send("rx", Message{Payload: 2, Bytes: 8 << 10})
	eng.Run()
	if finish[2] == 0 || finish[1] == 0 {
		t.Fatalf("missing completions: %v", finish)
	}
	if finish[2] >= finish[1] {
		t.Fatalf("short message finished at %v, after long at %v", finish[2], finish[1])
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, _, a, b := rig(t, RDMA)
	b.OnMessage(func(netsim.Addr, Message) {})
	for i := 0; i < 10; i++ {
		_ = a.Send("b", Message{Payload: i, Bytes: 10 * 4096})
	}
	eng.Run()
	st := a.Stats()
	if st.Sent != 10 {
		t.Fatalf("Sent = %d", st.Sent)
	}
	if st.DataFrames != 100 {
		t.Fatalf("DataFrames = %d, want 100", st.DataFrames)
	}
	if b.Stats().Delivered != 10 {
		t.Fatalf("Delivered = %d", b.Stats().Delivered)
	}
}

func TestFragMath(t *testing.T) {
	cases := []struct {
		bytes, frags int
	}{
		{0, 1}, {1, 1}, {4096, 1}, {4097, 2}, {8192, 2}, {1 << 20, 256},
	}
	for _, c := range cases {
		if got := fragsFor(c.bytes); got != c.frags {
			t.Errorf("fragsFor(%d) = %d, want %d", c.bytes, got, c.frags)
		}
	}
	if w := fragWire(8192, 0); w != 4096+headerBytes {
		t.Errorf("fragWire(8192,0) = %d", w)
	}
	if w := fragWire(4097, 1); w != 1+headerBytes {
		t.Errorf("fragWire(4097,1) = %d", w)
	}
}

// BenchmarkSend4K sends 4 KiB messages in bursts of 64, each drained
// before the next, on every kind; a warm burst must allocate nothing.
func BenchmarkSend4K(b *testing.B) {
	for _, kind := range Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			eng, _, a, rx := rig(b, kind)
			rx.OnMessage(func(netsim.Addr, Message) {})
			burst := func() {
				for range 64 {
					_ = a.Send("b", Message{Bytes: 4096})
				}
				eng.Run()
			}
			burst()
			n := testing.AllocsPerRun(20, burst)
			if n != 0 {
				b.Fatalf("a warm burst of 64 messages allocated %v times, want 0", n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = a.Send("b", Message{Bytes: 4096})
				if i%64 == 0 {
					eng.Run()
				}
			}
			eng.Run()
		})
	}
}
