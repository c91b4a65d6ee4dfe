package bench

import (
	"fmt"

	"hyperion/internal/baseline"
	"hyperion/internal/core"
	"hyperion/internal/ebpf"
	"hyperion/internal/ehdl"
	"hyperion/internal/energy"
	"hyperion/internal/fabric"
	"hyperion/internal/netsim"
	"hyperion/internal/nvme"
	"hyperion/internal/seg"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// bootDPU builds a standard experiment DPU.
func bootDPU(name string, seed uint64) (*sim.Engine, *core.DPU) {
	eng := sim.NewEngine(seed)
	net := netsim.New(eng, netsim.DefaultConfig())
	cfg := core.DefaultConfig(name)
	cfg.NVMe.Blocks = 1 << 20
	cfg.Seg.DRAMBytes = 128 << 20
	cfg.Seg.CheckpointEvery = 0
	d, _, err := core.Boot(eng, net, cfg)
	if err != nil {
		panic(err)
	}
	return eng, d
}

// Table1 reproduces Table 1 as a measurement: the same logical request
// (network in → compute → storage → network out) walked through each
// prior-art integration model versus Hyperion's unified path.
func Table1(_ uint64) Result {
	r := Result{ID: "E1", Title: "Table 1 — CPU involvement across integration models"}
	r.Table.Header = []string{"model", "cpu-touches", "pcie-hops", "copies", "latency", "what's missing"}
	paths := append(baseline.Table1Paths(), baseline.HyperionPath())
	var worst, hyperion sim.Duration
	for _, p := range paths {
		t := p.Totals()
		r.Table.AddRow(p.Model, itoa(int64(t.CPUTouches)), itoa(int64(t.PCIeHops)),
			itoa(int64(t.Copies)), t.Latency.String(), p.Lacks)
		if p.Model == "hyperion" {
			hyperion = t.Latency
		} else if t.Latency > worst {
			worst = t.Latency
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("hyperion eliminates all CPU touches and copies; software-path latency %.1f–%.1fx lower",
			float64(paths[len(paths)-2].Totals().Latency)/float64(hyperion),
			float64(worst)/float64(hyperion)))
	return r
}

// Fig2 reproduces Figure 2 by driving requests through the assembled
// datapath and reporting per-stage latency.
func Fig2(seed uint64) Result { return fig2(seed, nil) }

// Fig2Traced is Fig2 with the telemetry plane armed: every probe
// becomes one request-scoped trace with per-stage spans (arbiter,
// pipeline, storage, egress) plus the substrate-level spans beneath
// them. The Result is byte-identical to Fig2 at the same seed.
func Fig2Traced(seed uint64, rec *telemetry.Recorder) Result { return fig2(seed, rec) }

func fig2(seed uint64, rec *telemetry.Recorder) Result {
	r := Result{ID: "E2", Title: "Figure 2 — end-to-end datapath stage latency"}
	r.Table.Header = []string{"blocks", "arbiter", "pipeline", "storage", "egress", "total"}
	eng, d := bootDPU("fig2", seed)
	if rec != nil {
		d.SetRecorder(rec)
	}
	if err := d.LoadAccelerator(core.ProbeSlot, core.ProbeBitstream(d.Cfg.AuthTag), nil); err != nil {
		panic(err)
	}
	eng.Run()
	for _, blocks := range []int{1, 8, 64} {
		var tr core.Fig2Trace
		err := d.Fig2Probe(blocks%4, int64(blocks)*7, blocks, func(got core.Fig2Trace, _ []byte, err error) {
			if err != nil {
				panic(err)
			}
			tr = got
		})
		if err != nil {
			panic(err)
		}
		eng.Run()
		r.Table.AddRow(itoa(int64(blocks)), tr.Arbiter.String(), tr.Pipeline.String(),
			tr.Storage.String(), tr.Egress.String(), tr.Total.String())
	}
	r.Notes = append(r.Notes, "path: QSFP → DEMUX/AXIS arbiter → eHDL slot → NVMe host IP → PCIe x4 → flash → back")
	r.observe(eng)
	return r
}

// Energy reproduces the §2 volume/energy claims: max-TDP and volume
// ratios, plus measured joules-per-op for a storage-read service on
// both platforms.
func Energy(seed uint64) Result {
	r := Result{ID: "E3", Title: "§2 — volume and energy: Hyperion vs 1U server"}
	r.Table.Header = []string{"platform", "max TDP (W)", "volume (L)", "µJ/op @ 4K read", "ops run"}
	hy, srv := energy.Hyperion(), energy.Server1U()

	const ops = 20000
	// Hyperion: requests ride the Figure 2 path.
	eng, d := bootDPU("energy", seed)
	if err := d.LoadAccelerator(core.ProbeSlot, core.ProbeBitstream(d.Cfg.AuthTag), nil); err != nil {
		panic(err)
	}
	eng.Run()
	hm := energy.NewMeter(hy, eng.Now())
	hm.SetUtilization(eng.Now(), 0.7) // busy service
	next := 0
	// Both loops bind their completion once: a closure per op would be
	// the experiment's largest allocation.
	var issue func()
	replied := func(core.Fig2Trace, []byte, error) {
		hm.AddOp()
		issue()
	}
	issue = func() {
		if next >= ops {
			return
		}
		i := next
		next++
		_ = d.Fig2Probe(i%4, int64(i%1000), 1, replied)
	}
	// Keep 16 in flight for realistic utilization.
	for k := 0; k < 16; k++ {
		issue()
	}
	eng.Run()
	hEnd := eng.Now()

	// 1U server: same logical service through the CPU-centric
	// storage+network path model at the same concurrency.
	eng2 := sim.NewEngine(seed + 1)
	cpu := baseline.NewTimeSharedCPU(eng2, 16)
	path := baseline.Table1Paths()[3] // storage+network
	perReq := path.Totals().Latency
	sm := energy.NewMeter(srv, eng2.Now())
	sm.SetUtilization(eng2.Now(), 0.7)
	served := 0
	var serve func()
	finished := func() {
		sm.AddOp()
		serve()
	}
	serve = func() {
		if served >= ops {
			return
		}
		served++
		cpu.Serve(perReq, finished)
	}
	for k := 0; k < 16; k++ {
		serve()
	}
	eng2.Run()
	sEnd := eng2.Now()

	r.Table.AddRow(hy.Name, f1(hy.MaxTDPW), f1(hy.VolumeL), f2(hm.JoulesPerOp(hEnd)*1e6), itoa(hm.Ops()))
	r.Table.AddRow(srv.Name, f1(srv.MaxTDPW), f1(srv.VolumeL), f2(sm.JoulesPerOp(sEnd)*1e6), itoa(sm.Ops()))
	r.Notes = append(r.Notes,
		fmt.Sprintf("volume ratio %.1fx (paper: 5-10x), TDP ratio %.1fx (paper: 4-8x), measured energy/op ratio %.1fx",
			energy.VolumeRatio(hy, srv), energy.TDPRatio(hy, srv),
			sm.JoulesPerOp(sEnd)/hm.JoulesPerOp(hEnd)))
	r.observe(eng, eng2)
	return r
}

// Reconfig reproduces the §2 partial-reconfiguration claim: bitstream
// size sweep through the ICAP model, expecting the 10–100 ms window.
func Reconfig(seed uint64) Result {
	r := Result{ID: "E4", Title: "§2 — partial dynamic reconfiguration timescale"}
	r.Table.Header = []string{"bitstream", "size (MiB)", "reconfig time"}
	eng := sim.NewEngine(seed)
	f := fabric.New(eng, fabric.DefaultConfig(), "k")
	for _, mb := range []int64{1, 4, 8, 16, 32, 40, 64} {
		bs := &fabric.Bitstream{
			Name: fmt.Sprintf("bs-%dM", mb), SizeBytes: mb << 20,
			Depth: 8, II: 1, AuthTag: "k", Process: func(in any) any { return in },
		}
		var took sim.Duration
		start := eng.Now()
		if err := f.LoadBitstream(0, bs, func() { took = eng.Now().Sub(start) }); err != nil {
			panic(err)
		}
		eng.Run()
		r.Table.AddRow(bs.Name, itoa(mb), took.String())
	}
	r.Notes = append(r.Notes, "paper: coarse-grained spatial multiplexing at 10-100 ms timescales (4-40 MiB images)")
	r.observe(eng)
	return r
}

// Predictability reproduces the §2 predictable-performance claim:
// latency distribution of a fixed computation on a dedicated fabric
// slot with hostile co-tenants, versus the same work on a time-shared
// CPU host.
func Predictability(seed uint64) Result {
	r := Result{ID: "E5", Title: "§2 — predictable performance under co-location"}
	r.Table.Header = []string{"platform", "p50", "p99", "p99.9", "max", "p99/p50"}

	// Hyperion: tenant in slot 0, noisy neighbours saturating slots 1-4.
	eng, d := bootDPU("jitter", seed)
	mk := func(name string, ii int) *fabric.Bitstream {
		return &fabric.Bitstream{Name: name, SizeBytes: 4 << 20,
			Depth: 20, II: ii, AuthTag: d.Cfg.AuthTag, Process: func(in any) any { return in }}
	}
	if err := d.LoadAccelerator(0, mk("victim", 1), nil); err != nil {
		panic(err)
	}
	for s := 1; s < 5; s++ {
		if err := d.LoadAccelerator(s, mk(fmt.Sprintf("noisy%d", s), 1), nil); err != nil {
			panic(err)
		}
	}
	eng.Run()
	// Noise: hammer the co-tenant slots continuously.
	for s := 1; s < 5; s++ {
		for i := 0; i < 5000; i++ {
			_ = d.Submit(s, nil, nil)
		}
	}
	const samples = 5000
	victim := victimProbe{eng: eng, starts: make([]sim.Time, 0, samples)}
	fired := 0
	var tick func()
	tick = func() {
		if fired >= samples {
			return
		}
		fired++
		if d.Submit(0, nil, &victim) == nil {
			victim.starts = append(victim.starts, eng.Now())
		}
		eng.After(2*sim.Microsecond, "pace", tick)
	}
	tick()
	eng.Run()
	fl := &victim.lat

	// Host: same service time on a time-shared CPU with background load.
	eng2 := sim.NewEngine(seed + 2)
	cpu := baseline.NewTimeSharedCPU(eng2, 4)
	var cl sim.LatencyRecorder
	for i := 0; i < samples; i++ {
		at := sim.Time(i) * sim.Time(2*sim.Microsecond)
		eng2.At(at, "arr", func() {
			start := eng2.Now()
			cpu.Serve(80*sim.Nanosecond, func() { cl.Record(eng2.Now().Sub(start)) })
		})
	}
	eng2.Run()

	row := func(name string, l *sim.LatencyRecorder) {
		ratio := float64(l.Percentile(99)) / float64(max(l.Percentile(50), 1*sim.Picosecond))
		r.Table.AddRow(name, l.Percentile(50).String(), l.Percentile(99).String(),
			l.Percentile(99.9).String(), l.Max().String(), f2(ratio))
	}
	row("hyperion slot (4 hostile co-tenants)", fl)
	row("time-shared cpu (background load)", &cl)
	r.Notes = append(r.Notes, "spatial slots do not interfere: the fabric tenant's p99 equals its p50")
	r.observe(eng, eng2)
	return r
}

// victimProbe times E5's victim samples: it is the Completer of every
// one of them, and the victim slot completes its items in submission
// order, so the n-th completion is the n-th sample.
type victimProbe struct {
	eng    *sim.Engine
	starts []sim.Time // submission time of each sample
	done   int        // samples completed
	lat    sim.LatencyRecorder
}

func (v *victimProbe) Processed(*fabric.Work) {
	v.lat.Record(v.eng.Now().Sub(v.starts[v.done]))
	v.done++
}

// SegmentVsPage reproduces the §2.1 translation-overhead argument:
// object-granular segment translation (one 2 MiB object = one entry)
// against page-granular virtual memory (the same object = 512 pages and
// 4-level walks) across working-set sizes.
func SegmentVsPage(seed uint64) Result {
	r := Result{ID: "E6", Title: "§2.1 — segment translation vs page walks"}
	r.Table.Header = []string{"objects (2MiB)", "pages (4KiB)", "seg ns/access", "seg hit%", "page ns/access", "tlb hit%", "walk/seg"}
	const accesses = 200000
	const objBytes = 2 << 20
	const pagesPerObj = objBytes / 4096
	sweep := []int{64, 512, 4096}
	rows := runRows(len(sweep), nil, nil, func(i int, _ *telemetry.Recorder) tableRow {
		ws := sweep[i]
		// Segment side: ws objects, one descriptor each, zipf access.
		eng := sim.NewEngine(seed)
		ncfg := nvme.DefaultConfig("e6")
		ncfg.Blocks = 1 << 22
		host := nvme.NewHost(nvme.New(eng, ncfg), nil)
		scfg := seg.DefaultConfig()
		scfg.DRAMBytes = 1 << 30
		scfg.CheckpointEvery = 0
		st := seg.New(eng, scfg, []*nvme.Host{host})
		for i := 0; i < ws; i++ {
			if _, err := st.Alloc(seg.OID(1, uint64(i+1)), objBytes, true, seg.HintCold); err != nil {
				panic(err)
			}
		}
		rng := sim.NewRand(seed + 8)
		zip := sim.NewZipf(rng, uint64(ws), 0.9)
		var segCost sim.Duration
		for i := 0; i < accesses; i++ {
			_, c, err := st.Lookup(seg.OID(1, zip.Next()+1))
			if err != nil {
				panic(err)
			}
			segCost += c
		}
		segHit := float64(st.CacheHits) / float64(st.Lookups) * 100

		// Page side: the same accesses land on a random 4 KiB page of
		// the chosen object, so the TLB sees a 512×-larger key space.
		w := baseline.NewPageWalker(1024)
		rng2 := sim.NewRand(seed + 8)
		zip2 := sim.NewZipf(rng2, uint64(ws), 0.9)
		var pageCost sim.Duration
		for i := 0; i < accesses; i++ {
			obj := zip2.Next()
			page := obj*pagesPerObj + uint64(rng2.Intn(pagesPerObj))
			pageCost += w.Translate(page)
		}
		tlbHit := float64(w.TLBHits) / float64(w.Walks) * 100
		ratio := float64(pageCost) / float64(max(segCost, 1*sim.Picosecond))
		return engineRow([]string{itoa(int64(ws)), itoa(int64(ws * pagesPerObj)),
			f2(float64(segCost) / accesses / float64(sim.Nanosecond)), f1(segHit),
			f2(float64(pageCost) / accesses / float64(sim.Nanosecond)), f1(tlbHit), f2(ratio)}, eng)
	})
	r.addRows(rows)
	r.Notes = append(r.Notes, "object-granular entries cover 512x the reach of a page entry, so the descriptor cache keeps hitting long after the TLB thrashes")
	return r
}

// EBPFPipeline reproduces the §2.2 programming-stack numbers: verifier
// coverage, interpreter vs compiled-pipeline throughput, and warping
// gains.
func EBPFPipeline(seed uint64) Result {
	r := Result{ID: "E10", Title: "§2.2 — eBPF IR: verify, warp, pipeline"}
	r.Table.Header = []string{"program", "insns", "warped", "depth", "II", "interp ns/pkt", "pipeline ns/pkt", "speedup"}
	eng := sim.NewEngine(seed)
	f := fabric.New(eng, fabric.DefaultConfig(), "k")
	progs := e10Programs
	slot := 0
	for _, p := range progs {
		prog := ebpf.MustAssemble(p.src)
		vcfg := ebpf.DefaultVerifierConfig(nil)
		vcfg.CtxSize = 20
		plain, err := ehdl.Compile(prog, ehdl.Options{Name: p.name, AuthTag: "k", CtxBytes: 20, Verifier: vcfg})
		if err != nil {
			panic(err)
		}
		warped, err := ehdl.Compile(prog, ehdl.Options{Name: p.name, AuthTag: "k", CtxBytes: 20, Verifier: vcfg, Optimize: true})
		if err != nil {
			panic(err)
		}
		// Interpreter cost model: ~2 ns per instruction executed on an
		// embedded core (uBPF-class).
		vm := ebpf.NewVM(nil)
		_ = vm.Load(prog)
		ctx := make([]byte, 20)
		if _, err := vm.Run(ctx); err != nil {
			panic(err)
		}
		interpNs := float64(vm.Steps) * 2.0
		// Pipeline: II cycles per packet at the fabric clock.
		if err := f.LoadBitstream(slot%5, warped.Bitstream(), nil); err != nil {
			panic(err)
		}
		eng.Run()
		pipeNs := float64(warped.Stats.II) * 4.0 // 250 MHz
		r.Table.AddRow(p.name, itoa(int64(plain.Stats.Instructions)), itoa(int64(warped.Stats.Instructions)),
			itoa(int64(warped.Stats.Depth)), itoa(int64(warped.Stats.II)),
			f1(interpNs), f1(pipeNs), f1(interpNs/pipeNs))
		slot++
	}
	r.Notes = append(r.Notes, "verifier suite: see internal/ebpf tests (20+ rejection categories, range tracking)")
	r.observe(eng)
	return r
}
