// Middlebox example: the two §2.4 network-middleware workloads running
// together on one DPU — a fail2ban filter in a fabric slot banning
// brute-force attackers, feeding surviving traffic into a Tiara-style
// L4 load balancer whose connection table spills to the attached SSDs
// when DRAM fills. Traffic-flow-proportional state lives on the card's
// own flash, not on a remote x86 helper.
package main

import (
	"fmt"
	"log"

	"hyperion/internal/apps/fail2ban"
	"hyperion/internal/apps/lb"
	"hyperion/internal/core"
	"hyperion/internal/netsim"
	"hyperion/internal/seg"
	"hyperion/internal/sim"
	"hyperion/internal/trace"
)

func main() {
	eng := sim.NewEngine(99)
	net := netsim.New(eng, netsim.DefaultConfig())
	dpu, _, err := core.Boot(eng, net, core.DefaultConfig("mbox"))
	if err != nil {
		log.Fatal(err)
	}

	// Stage 1: fail2ban in slot 0 (verified eBPF, bans after 4
	// failures, ban log persisted to NVMe).
	filter, err := fail2ban.Deploy(dpu, 0, 4, nil)
	if err != nil {
		log.Fatal(err)
	}
	eng.Run()

	// Stage 2: load balancer with a deliberately small hot table so the
	// SSD spill path is visible.
	balancer, err := lb.New(dpu.View, seg.OID(0x1B, 0),
		[]lb.Backend{{Addr: 0x0A000001}, {Addr: 0x0A000002}, {Addr: 0x0A000003}}, 512)
	if err != nil {
		log.Fatal(err)
	}

	// Mixed traffic: attack trace interleaved with legitimate
	// connections.
	attack := trace.NewAttackGen(5, 12)
	conns := trace.NewConnGen(6)
	steered, blocked := 0, 0
	const packets = 30000
	for i := 0; i < packets; i++ {
		var p trace.Packet
		if i%3 == 0 {
			p = attack.Next()
		} else {
			p = conns.Next()
		}
		err := filter.Process(p, func(verdict int) {
			if verdict != fail2ban.VerdictPass {
				blocked++
				return
			}
			if dst, err := balancer.Steer(p); err == nil && dst != 0 {
				steered++
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		if i%1024 == 0 {
			eng.Run()
		}
	}
	eng.Run()

	fmt.Printf("packets: %d total, %d blocked by fail2ban, %d steered to backends\n",
		packets, blocked, steered)
	fmt.Printf("fail2ban: %d sources banned (persisted to the NVMe ban log)\n", filter.Banned)
	fmt.Printf("balancer: %d conns opened, hot table %d/%d, %d spilled to SSD, %d spill hits\n",
		balancer.NewConns, balancer.HotLen(), 512, balancer.Spills, balancer.SpillHits)
	srcs, err := filter.BannedSources()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ban log readback: %d records\n", len(srcs))
}
