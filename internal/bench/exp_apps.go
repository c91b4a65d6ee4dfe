package bench

import (
	"fmt"

	"hyperion/internal/apps/chase"
	"hyperion/internal/apps/fail2ban"
	"hyperion/internal/apps/lb"
	"hyperion/internal/core"
	"hyperion/internal/netsim"
	"hyperion/internal/nvme"
	"hyperion/internal/rpc"
	"hyperion/internal/seg"
	"hyperion/internal/sim"
	"hyperion/internal/storage/bptree"
	"hyperion/internal/storage/corfu"
	"hyperion/internal/telemetry"
	"hyperion/internal/trace"
	"hyperion/internal/transport"
)

// newView builds a standalone segment-store view for storage-layer
// experiments.
func newView(devs int, seed uint64) (*sim.Engine, *seg.SyncView) {
	eng := sim.NewEngine(seed)
	var hosts []*nvme.Host
	for i := 0; i < devs; i++ {
		cfg := nvme.DefaultConfig(fmt.Sprintf("ssd%d", i))
		cfg.Blocks = 1 << 20
		hosts = append(hosts, nvme.NewHost(nvme.New(eng, cfg), nil))
	}
	scfg := seg.DefaultConfig()
	scfg.DRAMBytes = 128 << 20
	scfg.CheckpointEvery = 0
	return eng, seg.NewSyncView(seg.New(eng, scfg, hosts))
}

// PointerChase reproduces §2.4's pointer-chasing figure: lookup latency
// and round trips vs tree height, client-side vs offloaded.
func PointerChase(seed uint64) Result { return pointerChase(seed, nil) }

// PointerChaseTraced is PointerChase with the telemetry plane armed:
// each tree size becomes its own Perfetto process (one per row) and
// every lookup a request-scoped trace joining the app-level span to
// the rpc/transport/netsim spans beneath it. The Result is
// byte-identical to PointerChase at the same seed.
func PointerChaseTraced(seed uint64, rec *telemetry.Recorder) Result {
	return pointerChase(seed, rec)
}

func pointerChase(seed uint64, rec *telemetry.Recorder) Result {
	r := Result{ID: "E7", Title: "§2.4 — pointer chasing: client-side RTTs vs offloaded"}
	r.Table.Header = []string{"keys", "height", "client RTTs", "client latency", "offload RTTs", "offload latency", "speedup"}
	sweep := []int{150, 8000, 40000}
	rows := runRows(len(sweep), rec,
		func(i int) string { return fmt.Sprintf("e7.keys%d", sweep[i]) },
		func(i int, crec *telemetry.Recorder) tableRow { return pointerChaseRow(seed, sweep[i], crec) })
	r.addRows(rows)
	r.Notes = append(r.Notes, "client-side pays height+1 round trips; the offloaded verified program pays one")
	return r
}

// pointerChaseRow is one E7 row: a DPU serving a keys-entry B+ tree,
// looked up client-side and through the offload.
func pointerChaseRow(seed uint64, keys int, crec *telemetry.Recorder) tableRow {
	eng := sim.NewEngine(seed)
	net := netsim.New(eng, netsim.DefaultConfig())
	cfg := core.DefaultConfig("chase")
	cfg.NVMe.Blocks = 1 << 20
	cfg.Seg.DRAMBytes = 128 << 20
	cfg.Seg.CheckpointEvery = 0
	d, _, err := core.Boot(eng, net, cfg)
	if err != nil {
		panic(err)
	}
	// The latency-sensitive case of §2.4: the index is DRAM-resident
	// on the DPU (ephemeral segments), so network round trips — not
	// flash — dominate the client-side traversal.
	tree, err := bptree.Create(d.View, seg.OID(0xBEE, 0), false)
	if err != nil {
		panic(err)
	}
	for i := 0; i < keys; i++ {
		if err := tree.Insert(uint64(i*2), uint64(i)); err != nil {
			panic(err)
		}
	}
	d.View.TakeCost()
	svc, err := chase.NewService(d, d.CtrlSrv, tree)
	if err != nil {
		panic(err)
	}
	_ = svc
	if crec != nil {
		d.SetRecorder(crec)
		net.SetRecorder(crec)
	}
	cn, _ := net.Attach("client")
	cli := rpc.NewClient(eng, transport.New(eng, cfg.Transport, cn))
	cli.Timeout = sim.Duration(sim.Second)
	cli.SetRecorder(crec)
	cc := chase.NewClient(cli, d.ControlAddr())

	const lookups = 50
	rng := sim.NewRand(seed + 6)
	measure := func(mode string, get func(uint64, func(chase.GetReply, error))) (sim.Duration, int64) {
		cc.RTTs = 0
		var total sim.Duration
		for i := 0; i < lookups; i++ {
			k := uint64(rng.Intn(keys) * 2)
			cc.Span = crec.NewRequest()
			start := eng.Now()
			get(k, func(rep chase.GetReply, err error) {
				if err != nil {
					panic(err)
				}
				if crec != nil {
					crec.Span("chase", mode, cc.Span, start, eng.Now())
				}
				total += eng.Now().Sub(start)
			})
			eng.Run()
		}
		return total / lookups, cc.RTTs / lookups
	}
	clsLat, clsRTT := measure("client-side", cc.ClientSideGet)
	offLat, offRTT := measure("offload", cc.OffloadGet)
	return engineRow([]string{itoa(int64(keys)), itoa(int64(tree.Height())),
		itoa(clsRTT), clsLat.String(), itoa(offRTT), offLat.String(),
		f2(float64(clsLat) / float64(offLat))}, eng)
}

// Fail2ban reproduces the §2.4 middleware result: line-rate filtering
// with persistent ban state on the DPU vs the same filter on a host CPU
// stack.
func Fail2ban(seed uint64) Result {
	r := Result{ID: "E8", Title: "§2.4 — fail2ban middleware on the DPU"}
	r.Table.Header = []string{"platform", "pkts", "banned", "dropped", "Mpps capacity", "per-pkt latency"}
	eng, d := bootDPU("f2b", seed)
	f, err := fail2ban.Deploy(d, 0, 5, nil)
	if err != nil {
		panic(err)
	}
	eng.Run()
	g := trace.NewAttackGen(seed+10, 16)
	const pkts = 20000
	start := eng.Now()
	for i := 0; i < pkts; i++ {
		_ = f.Process(g.Next(), func(int) {})
		if i%512 == 0 {
			eng.Run()
		}
	}
	eng.Run()
	elapsed := eng.Now().Sub(start)
	// Capacity: the pipeline admits one packet per II cycles.
	ii := f.Pipeline().Stats.II
	mpps := 250.0 / float64(ii) // 250 MHz clock
	perPkt := d.Fabric.Cycles(int64(f.Pipeline().Stats.Depth))
	r.Table.AddRow("hyperion slot", itoa(pkts), itoa(f.Banned), itoa(f.Dropped), f1(mpps), perPkt.String())

	// Host baseline: per-packet kernel path + filter on a time-shared
	// CPU (XDP-less iptables/fail2ban-style userspace consult).
	hostPerPkt := 4*sim.Microsecond + 2*sim.Microsecond              // stack + match
	hostMpps := float64(sim.Second) / float64(hostPerPkt) / 1e6 * 16 // 16 cores
	r.Table.AddRow("1u host (16 cores)", itoa(pkts), "-", "-", f2(hostMpps), hostPerPkt.String())
	r.Notes = append(r.Notes,
		fmt.Sprintf("simulated trace time %v; ban log persisted to NVMe through the segment store", elapsed))
	r.observe(eng)
	return r
}

// LoadBalancer reproduces the §2.4 Tiara-style result: connection-table
// scaling past DRAM by spilling to the attached SSDs.
func LoadBalancer(seed uint64) Result {
	r := Result{ID: "E9", Title: "§2.4 — L4 load balancer with SSD state spill"}
	r.Table.Header = []string{"conns", "hot cap", "spills", "spill hits", "mean steer", "state kept"}
	sweep := []int{2000, 8000, 32000}
	rows := runRows(len(sweep), nil, nil, func(i int, _ *telemetry.Recorder) tableRow {
		conns := sweep[i]
		eng, v := newView(4, seed)
		bal, err := lb.New(v, seg.OID(0x1b, 0), []lb.Backend{{Addr: 1}, {Addr: 2}, {Addr: 3}, {Addr: 4}}, 4000)
		if err != nil {
			panic(err)
		}
		// Open conns connections, then touch them all again.
		for i := 0; i < conns; i++ {
			p := trace.Packet{SrcIP: uint32(i), DstIP: 9, SrcPort: uint16(i), DstPort: 443, Proto: 6, Flags: 0x02, Bytes: 60}
			if _, err := bal.Steer(p); err != nil {
				panic(err)
			}
		}
		v.TakeCost()
		var total sim.Duration
		kept := 0
		for i := 0; i < conns; i++ {
			p := trace.Packet{SrcIP: uint32(i), DstIP: 9, SrcPort: uint16(i), DstPort: 443, Proto: 6, Flags: 0x10, Bytes: 500}
			dst, err := bal.Steer(p)
			if err != nil {
				panic(err)
			}
			if dst != 0 {
				kept++
			}
			total += v.TakeCost()
		}
		return engineRow([]string{itoa(int64(conns)), "4000", itoa(bal.Spills), itoa(bal.SpillHits),
			(total / sim.Duration(conns)).String(),
			fmt.Sprintf("%d/%d", kept, conns)}, eng)
	})
	r.addRows(rows)
	r.Notes = append(r.Notes, "Tiara punts overflow state to x86 servers; Hyperion keeps it on its own SSDs (zero lost flows)")
	return r
}

// Corfu reproduces the §2.4 shared-log result: aggregate append
// throughput vs stripe width and the sequencer-batching ablation.
// Concurrent appenders overlap flash programs on different units, so
// aggregate throughput is min(sequencer rate × batch, units / unit
// write time); the sweep shows both regimes and the crossover.
func Corfu(seed uint64) Result {
	r := Result{ID: "E11", Title: "§2.4 — Corfu-SSD shared log: stripes × sequencer batching"}
	r.Table.Header = []string{"units", "batch", "unit write", "seq-bound Kops/s", "flash-bound Kops/s", "aggregate Kops/s", "bottleneck"}
	seqRTT := 3 * sim.Microsecond // sequencer token round trip
	for _, units := range []int{1, 2, 4, 8} {
		for _, batch := range []int{1, 8} {
			eng, v := newView(4, seed)
			log := buildLog(v, units)
			// Entries are block-aligned (cell = 4 KiB) so unit writes
			// go straight to the flash write cache without RMW, as a
			// log-structured unit would lay them out.
			const n = 400
			data := make([]byte, 512)
			v.TakeCost()
			for i := 0; i < n; i++ {
				if _, err := log.Append(data); err != nil {
					panic(err)
				}
			}
			unitWrite := v.TakeCost() / n
			seqRate := float64(batch) / seqRTT.Seconds()
			flashRate := float64(units) / unitWrite.Seconds()
			agg := seqRate
			bottleneck := "sequencer"
			if flashRate < agg {
				agg = flashRate
				bottleneck = "flash"
			}
			r.Table.AddRow(itoa(int64(units)), itoa(int64(batch)), unitWrite.String(),
				f1(seqRate/1000), f1(flashRate/1000), f1(agg/1000), bottleneck)
			r.observe(eng)
		}
	}
	r.Notes = append(r.Notes,
		"unbatched, the sequencer token RTT caps the log regardless of stripes; batched, throughput scales with stripe width until flash binds")
	return r
}

// buildLog assembles a striped Corfu log over fresh units. The entry
// size is chosen so each cell (entry + 5-byte header) fills exactly one
// 4 KiB block: appends then hit the device as aligned single-block
// writes, the layout a log-structured unit uses.
func buildLog(v *seg.SyncView, units int) *corfu.Log {
	var us []*corfu.Unit
	for i := 0; i < units; i++ {
		u, err := corfu.NewUnit(v, seg.OID(uint64(0xC0F+i), 0), 4091, true)
		if err != nil {
			panic(err)
		}
		us = append(us, u)
	}
	l, err := corfu.NewLog(&corfu.Sequencer{}, us)
	if err != nil {
		panic(err)
	}
	return l
}
