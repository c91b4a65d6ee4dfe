package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"hyperion/internal/apps/chase"
	"hyperion/internal/apps/lb"
	"hyperion/internal/ebpf"
	"hyperion/internal/ehdl"
	"hyperion/internal/fabric"
	"hyperion/internal/netsim"
	"hyperion/internal/nvme"
	"hyperion/internal/nvmeof"
	"hyperion/internal/pcie"
	"hyperion/internal/rpc"
	"hyperion/internal/seg"
	"hyperion/internal/sim"
	"hyperion/internal/storage/bptree"
	"hyperion/internal/storage/colfmt"
	"hyperion/internal/storage/kvssd"
	"hyperion/internal/storage/lsm"
	"hyperion/internal/telemetry"
	"hyperion/internal/tenant"
	"hyperion/internal/trace"
	"hyperion/internal/transport"
	"hyperion/internal/wire"
)

// A probe is a fixed-iteration loop over one layer's public API. Its
// fixture is built the way the layer's own in-package microbenchmark
// builds it, so a probe and `go test -bench` of that layer measure the
// same thing; the probe exists because the benchmark must print the
// number itself, with a host span around it.
type probe struct {
	metric string // time metric; "" when only allocs are reported
	unit   string
	scale  float64 // ns per op -> reported unit
	allocs string  // allocs/op metric, where the repository pins zero
	iters  int
	// setup builds the fixture and returns the loop: it runs n
	// operations and returns the time they took, leaving out any
	// untimed housekeeping between them.
	setup func() func(n int) time.Duration
}

const (
	probeRepeats = 5
	perNs        = 1.0
	perUs        = 1e-3
)

// timed runs f and returns its duration.
func timed(f func()) time.Duration {
	t0 := now()
	f()
	return now().Sub(t0)
}

// must aborts a probe whose fixture cannot be built: that is a bug in
// the probe or a changed layer API, never an input condition.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("hyperbench probe fixture: %v", err))
	}
}

// runProbe warms the fixture with one round, then takes the median of
// probeRepeats rounds. iters is the per-round operation count.
func runProbe(p probe, iters int, sp *spans, out map[string]float64) {
	id := sp.begin("probe:"+p.name(), 0)
	defer sp.end(id)
	loop := p.setup()
	loop(iters)
	var ns, allocs []float64
	var m0, m1 runtime.MemStats
	for r := 0; r < probeRepeats; r++ {
		runtime.ReadMemStats(&m0)
		d := loop(iters)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d.Nanoseconds())/float64(iters))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(iters))
	}
	if p.metric != "" {
		_, med, _ := quartiles(ns)
		out[p.metric] = med * p.scale
	}
	if p.allocs != "" {
		_, med, _ := quartiles(allocs)
		out[p.allocs] = med
	}
}

func (p probe) name() string {
	if p.metric != "" {
		return p.metric
	}
	return p.allocs
}

// syncView is the fixture every storage-structure benchmark in the
// repository starts from: one NVMe device behind a segment store with
// checkpoints off, accessed synchronously.
func syncView() *seg.SyncView {
	eng := sim.NewEngine(1)
	cfg := nvme.DefaultConfig("nvme")
	cfg.Blocks = 1 << 20
	host := nvme.NewHost(nvme.New(eng, cfg), nil)
	scfg := seg.DefaultConfig()
	scfg.DRAMBytes = 64 << 20
	scfg.CheckpointEvery = 0
	return seg.NewSyncView(seg.New(eng, scfg, []*nvme.Host{host}))
}

// netPair attaches two NICs to a fresh default network.
func netPair(eng *sim.Engine, a, b netsim.Addr) (*netsim.NIC, *netsim.NIC) {
	net := netsim.New(eng, netsim.DefaultConfig())
	na, err := net.Attach(a)
	must(err)
	nb, err := net.Attach(b)
	must(err)
	return na, nb
}

// barDev is the minimal PCIe endpoint the DMA probe targets.
type barDev struct{}

func (barDev) PCIeName() string        { return "nvme" }
func (barDev) BARSize() int64          { return 1 << 20 }
func (barDev) MMIORead(int64) uint64   { return 0 }
func (barDev) MMIOWrite(int64, uint64) {}

// wfqDrain fills every port of a WFQ arbiter to its depth and times the
// drain: one scheduler pick per delivered item.
func wfqDrain(ports int, weight func(i int) int, size func(r *sim.Rand) int) func(n int) time.Duration {
	const depth = 64
	eng := sim.NewEngine(1)
	arb := fabric.NewWFQArbiter(eng, "probe", fabric.DefaultConfig().ClockHz, 64, depth, ports, func(fabric.Item) {})
	for i := 0; i < ports; i++ {
		arb.SetWeight(i, weight(i))
	}
	r := sim.NewRand(1)
	return func(n int) time.Duration {
		var d time.Duration
		for done := 0; done < n; done += ports * depth {
			for i := 0; i < ports; i++ {
				for arb.Len(i) < depth {
					must(arb.Push(i, fabric.Item{Bytes: size(r)}))
				}
			}
			d += timed(eng.Run)
		}
		return d
	}
}

var probes = []probe{
	// Kernel: push at a steady 1k-deep queue (drain untimed), then
	// schedule+cancel, as BenchmarkEngine_Schedule/_Cancel depth1k.
	{metric: "sim.schedule_ns", unit: "ns/op", scale: perNs, allocs: "sim.schedule_allocs", iters: 200_000, setup: func() func(int) time.Duration {
		const depth = 1000
		e := sim.NewEngine(1)
		fn := func() {}
		next := int64(0)
		fill := func(n int) {
			for j := 0; j < n; j++ {
				e.At(sim.Time(next)*sim.Time(sim.Nanosecond), "", fn)
				next++
			}
		}
		drain := func(n int) {
			for j := 0; j < n; j++ {
				e.Step()
			}
		}
		fill(2 * depth)
		drain(depth)
		return func(n int) time.Duration {
			var d time.Duration
			for done := 0; done < n; done += depth {
				d += timed(func() { fill(depth) })
				drain(depth)
			}
			return d
		}
	}},
	{metric: "sim.cancel_ns", unit: "ns/op", scale: perNs, iters: 200_000, setup: func() func(int) time.Duration {
		const depth = 1000
		e := sim.NewEngine(1)
		fn := func() {}
		for i := 0; i < depth; i++ {
			e.After(sim.Duration(i)*sim.Nanosecond, "", fn)
		}
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					e.Cancel(e.After(sim.Duration(i+depth)*sim.Nanosecond, "", fn))
				}
			})
		}
	}},
	// Two LPs on a one-shard cluster bounce one envelope: every hop is a
	// window, an exchange and a barrier sort, the way E17 uses the kernel.
	{metric: "sim.exchange_ns", unit: "ns/op", scale: perNs, iters: 20_000, setup: func() func(int) time.Duration {
		return func(n int) time.Duration {
			la := sim.Microsecond
			cl := sim.NewCluster(1, 1, la)
			bounce := func(sh *sim.Shard, env sim.Envelope) {
				if env.A > 0 {
					sh.Send(env.Dst, env.Src, la, 0, env.A-1, 0, nil)
				}
			}
			a := cl.AddLP(0, bounce)
			b := cl.AddLP(0, bounce)
			sh := cl.Shard(0)
			sh.Engine().At(0, "boot", func() { sh.Send(a, b, la, 0, uint64(n), 0, nil) })
			return timed(cl.Run)
		}
	}},

	// E18's shape: 16 ports, weights 1-4, 64 B to 64 KiB items, so a pick
	// scans many DRR rounds.
	{metric: "fabric.wfq_pick_ns", unit: "ns/op", scale: perNs, iters: 16 * 64 * 2, setup: func() func(int) time.Duration {
		sizes := []int{64, 128, 4096, 64 << 10}
		return wfqDrain(16, func(i int) int { return 1 + i%4 }, func(r *sim.Rand) int { return sizes[r.Intn(len(sizes))] })
	}},
	// The bypass case: two equal ports, one-beat items, one round per pick.
	{metric: "fabric.wfq2_pick_ns", unit: "ns/op", scale: perNs, iters: 2 * 64 * 200, setup: func() func(int) time.Duration {
		return wfqDrain(2, func(int) int { return 1 }, func(*sim.Rand) int { return 64 })
	}},
	{metric: "fabric.rr_pick_ns", unit: "ns/op", scale: perNs, iters: 16 * 64 * 25, setup: func() func(int) time.Duration {
		const ports, depth = 16, 64
		eng := sim.NewEngine(1)
		arb := fabric.NewArbiter(eng, "probe", fabric.DefaultConfig().ClockHz, 64, depth, ports, func(fabric.Item) {})
		return func(n int) time.Duration {
			var d time.Duration
			for done := 0; done < n; done += ports * depth {
				for i := 0; i < ports; i++ {
					for arb.In(i).Len() < depth {
						must(arb.In(i).Push(fabric.Item{Bytes: 64}))
					}
				}
				d += timed(eng.Run)
			}
			return d
		}
	}},
	{metric: "tenant.submit_ns", unit: "ns/op", scale: perNs, iters: 64 * 400, setup: func() func(int) time.Duration {
		eng := sim.NewEngine(1)
		fab := fabric.New(eng, fabric.DefaultConfig(), "tag")
		ctl := tenant.New(eng, fab, tenant.DefaultConfig())
		t, err := ctl.Admit(tenant.Spec{Name: "probe", Weight: 1, Image: &fabric.Bitstream{
			Name: "echo", SizeBytes: 1 << 20, Uses: fabric.Resources{LUTs: 20000, FFs: 40000, BRAM: 32, DSP: 16},
			Depth: 12, II: 1, AuthTag: "tag", Process: func(in any) any { return in },
		}})
		must(err)
		eng.Run() // reconfiguration completes; the tenant is active
		done := func(error) {}
		batch := tenant.DefaultConfig().DepthItems
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i += batch {
					for j := 0; j < batch; j++ {
						must(ctl.Submit(t.ID, nil, 64, done))
					}
					eng.Run()
				}
			})
		}
	}},

	{metric: "wire.getrelease_ns", unit: "ns/op", scale: perNs, allocs: "wire.getrelease_allocs", iters: 500_000, setup: func() func(int) time.Duration {
		pool := wire.NewPool(4096)
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					pool.Get(4096).Release()
				}
			})
		}
	}},

	// The queue-pair path (rack, datapath) and the synchronous path
	// (storage) of the same device.
	{metric: "nvme.read4k_ns", unit: "ns/op", scale: perNs, iters: 50_000, setup: func() func(int) time.Duration {
		eng := sim.NewEngine(1)
		h := nvme.NewHost(nvme.New(eng, nvme.DefaultConfig("bench")), nil)
		r := sim.NewRand(1)
		cb := func([]byte, uint16) {}
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					must(h.Read(0, int64(r.Intn(1<<20)), 1, cb))
					if i%256 == 0 {
						eng.Run()
					}
				}
				eng.Run()
			})
		}
	}},
	{metric: "nvme.readsync_ns", unit: "ns/op", scale: perNs, iters: 200_000, setup: func() func(int) time.Duration {
		const blocks = 4096
		cfg := nvme.DefaultConfig("bench")
		dev := nvme.New(sim.NewEngine(1), cfg)
		dev.WriteSync(0, bytes.Repeat([]byte{0xAB}, blocks*cfg.BlockSize))
		r := sim.NewRand(1)
		dst := make([]byte, cfg.BlockSize)
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					dev.ReadSyncInto(dst, int64(r.Intn(blocks)), 1)
				}
			})
		}
	}},

	{metric: "seg.lookup_ns", unit: "ns/op", scale: perNs, iters: 500_000, setup: func() func(int) time.Duration {
		eng := sim.NewEngine(1)
		cfg := nvme.DefaultConfig("nvme")
		cfg.Blocks = 1 << 18
		host := nvme.NewHost(nvme.New(eng, cfg), nil)
		scfg := seg.DefaultConfig()
		scfg.DRAMBytes = 16 << 20
		s := seg.New(eng, scfg, []*nvme.Host{host})
		id := seg.OID(1, 1)
		_, err := s.Alloc(id, 4096, false, seg.HintHot)
		must(err)
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					_, _, err := s.Lookup(id)
					must(err)
				}
			})
		}
	}},
	// A 4 KiB read of a durable (NVMe-resident) object through the
	// synchronous view: segment lookup + device copy, E6's inner step.
	{metric: "seg.readat_ns", unit: "ns/op", scale: perNs, iters: 100_000, setup: func() func(int) time.Duration {
		const size = 4 << 20
		v := syncView()
		id := seg.OID(1, 1)
		_, err := v.Alloc(id, size, true, seg.HintCold)
		must(err)
		must(v.WriteAt(id, 0, bytes.Repeat([]byte{0xCD}, size)))
		r := sim.NewRand(1)
		var buf []byte
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					buf, err = v.ReadAtBuf(id, int64(r.Intn(size/4096))*4096, 4096, buf)
					must(err)
				}
			})
		}
	}},

	{metric: "storage.bptree_get_ns", unit: "ns/op", scale: perNs, iters: 50_000, setup: func() func(int) time.Duration {
		const keys = 100_000
		tr, err := bptree.Create(syncView(), seg.OID(100, 0), true)
		must(err)
		for i := uint64(0); i < keys; i++ {
			must(tr.Insert(i, i))
		}
		r := sim.NewRand(1)
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					_, _, err := tr.Get(r.Uint64() % keys)
					must(err)
				}
			})
		}
	}},
	{metric: "storage.bptree_insert_ns", unit: "ns/op", scale: perNs, iters: 20_000, setup: func() func(int) time.Duration {
		tr, err := bptree.Create(syncView(), seg.OID(100, 0), true)
		must(err)
		next := uint64(0)
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					must(tr.Insert(next, next))
					next++
				}
			})
		}
	}},
	{metric: "storage.lsm_put_ns", unit: "ns/op", scale: perNs, iters: 50_000, setup: func() func(int) time.Duration {
		tr, err := lsm.Create(syncView(), seg.OID(200, 0), true, lsm.DefaultMemtableCap)
		must(err)
		next := uint64(0)
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					must(tr.Put(next, next))
					next++
				}
			})
		}
	}},
	{metric: "storage.lsm_get_ns", unit: "ns/op", scale: perNs, iters: 20_000, setup: func() func(int) time.Duration {
		const keys = 50_000
		tr, err := lsm.Create(syncView(), seg.OID(200, 0), true, 1024)
		must(err)
		for i := uint64(0); i < keys; i++ {
			must(tr.Put(i, i))
		}
		must(tr.Flush())
		r := sim.NewRand(1)
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					_, _, err := tr.Get(r.Uint64() % keys)
					must(err)
				}
			})
		}
	}},
	{metric: "storage.kvssd_putget_ns", unit: "ns/op", scale: perNs, iters: 20_000, setup: func() func(int) time.Duration {
		kv, err := kvssd.Create(syncView(), seg.OID(300, 0), kvssd.BackendBTree, true)
		must(err)
		val := bytes.Repeat([]byte("v"), 100)
		keys := make([][]byte, 10_000)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("key-%d", i))
		}
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					k := keys[i%len(keys)]
					if i%2 == 0 {
						must(kv.Put(k, val))
					} else {
						_, _, err := kv.Get(k)
						must(err)
					}
				}
			})
		}
	}},
	{metric: "storage.colfmt_scan_ns", unit: "ns/op", scale: perNs, iters: 2_000, setup: func() func(int) time.Duration {
		v := syncView()
		w := colfmt.NewWriter(v, colfmt.Schema{Columns: []colfmt.Column{
			{Name: "ts", Type: colfmt.TypeInt64},
			{Name: "value", Type: colfmt.TypeInt64},
			{Name: "tag", Type: colfmt.TypeString},
		}}, 4096)
		for i := 0; i < 100_000; i++ {
			must(w.Append(int64(i), int64(i%97), fmt.Sprintf("tag-%d", i%10)))
		}
		id := seg.OID(700, 1)
		must(w.Close(id, true))
		rd, err := colfmt.OpenReader(v, id)
		must(err)
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					must(rd.ScanInt64("ts", 50000, 50100, func(*colfmt.Batch, int) bool { return true }))
				}
			})
		}
	}},

	{metric: "netsim.send_ns", unit: "ns/op", scale: perNs, iters: 100_000, setup: func() func(int) time.Duration {
		eng := sim.NewEngine(1)
		src, dst := netPair(eng, "s", "d")
		dst.OnReceive(func(netsim.Frame) {})
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					must(src.Send(netsim.Frame{Dst: "d", Bytes: 1500}))
					if i%128 == 0 {
						eng.Run()
					}
				}
				eng.Run()
			})
		}
	}},
	{metric: "transport.rdma4k_ns", unit: "ns/op", scale: perNs, iters: 50_000, setup: func() func(int) time.Duration {
		eng := sim.NewEngine(1)
		na, nb := netPair(eng, "a", "b")
		a := transport.New(eng, transport.RDMA, na)
		transport.New(eng, transport.RDMA, nb).OnMessage(func(netsim.Addr, transport.Message) {})
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					must(a.Send("b", transport.Message{Payload: i, Bytes: 4096}))
					if i%64 == 0 {
						eng.Run()
					}
				}
				eng.Run()
			})
		}
	}},
	{metric: "rpc.call_ns", unit: "ns/op", scale: perNs, allocs: "rpc.call_allocs", iters: 20_000, setup: func() func(int) time.Duration {
		eng := sim.NewEngine(1)
		sn, cn := netPair(eng, "server", "client")
		srv := rpc.NewServer(eng, transport.New(eng, transport.RDMA, sn), rpc.RunToCompletion)
		cli := rpc.NewClient(eng, transport.New(eng, transport.RDMA, cn))
		srv.Handle("nop", func(arg any, respond func(any, int, error)) { respond(nil, 64, nil) })
		cb := func(any, error) {}
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					cli.Call("server", "nop", nil, 64, cb)
					if i%64 == 0 {
						eng.Run()
					}
				}
				eng.Run()
			})
		}
	}},
	{metric: "nvmeof.read4k_ns", unit: "ns/op", scale: perNs, iters: 10_000, setup: func() func(int) time.Duration {
		eng := sim.NewEngine(1)
		tn, in := netPair(eng, "target", "init")
		cfg := nvme.DefaultConfig("remote-ssd")
		cfg.Blocks = 1 << 20
		host := nvme.NewHost(nvme.New(eng, cfg), nil)
		srv := rpc.NewServer(eng, transport.New(eng, transport.RDMA, tn), rpc.RunToCompletion)
		nvmeof.NewTarget(srv, host, 0)
		ini := nvmeof.NewInitiator(rpc.NewClient(eng, transport.New(eng, transport.RDMA, in)), "target", cfg.BlockSize)
		cb := func([]byte, error) {}
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					ini.Read(int64(i%1000), 1, cb)
					if i%64 == 0 {
						eng.Run()
					}
				}
				eng.Run()
			})
		}
	}},
	{metric: "pcie.dma4k_ns", unit: "ns/op", scale: perNs, iters: 100_000, setup: func() func(int) time.Duration {
		eng := sim.NewEngine(1)
		rc := pcie.NewRootComplex(eng, []int{4})
		must(rc.Attach(0, barDev{}))
		_, err := rc.Enumerate()
		must(err)
		base, _ := rc.Ports()[0].BAR()
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					must(rc.DMA(base, 4096, nil))
					if i%1024 == 0 {
						eng.Run()
					}
				}
				eng.Run()
			})
		}
	}},

	{metric: "ebpf.verify_us", unit: "us/op", scale: perUs, iters: 2_000, setup: func() func(int) time.Duration {
		maps := &ebpf.MapSet{}
		maps.Add(ebpf.NewHashMap(4, 8, 16))
		cfg := ebpf.DefaultVerifierConfig(maps)
		prog := ebpf.MustAssemble(`
			stw [r10-4], 1
			mov r1, 0
			mov r2, r10
			sub r2, 4
			call 1
			jeq r0, 0, miss
			ldxdw r3, [r0+0]
			add r3, 1
			stxdw [r0+0], r3
			mov r0, 0
			exit
		miss:
			mov r0, 1
			exit`)
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					must(ebpf.Verify(prog, cfg))
				}
			})
		}
	}},
	// Seven straight-line instructions per run (BenchmarkVMArithmetic).
	{metric: "ebpf.run_ns_per_insn", unit: "ns/insn", scale: perNs / 7, iters: 500_000, setup: func() func(int) time.Duration {
		vm := ebpf.NewVM(nil)
		must(vm.Load(ebpf.MustAssemble(`
			mov r0, 0
			mov r1, 1
			add r0, r1
			mul r0, 3
			rsh r0, 1
			xor r0, 0x55
			exit`)))
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					_, err := vm.Run(nil)
					must(err)
				}
			})
		}
	}},
	{metric: "ebpf.gofront_compile_us", unit: "us/op", scale: perUs, iters: 200, setup: func() func(int) time.Duration {
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					_, err := chase.CompileStep()
					must(err)
				}
			})
		}
	}},
	{metric: "ehdl.compile_us", unit: "us/op", scale: perUs, iters: 2_000, setup: func() func(int) time.Duration {
		prog := ebpf.MustAssemble(`
			ldxw r2, [r1+0]
			mov r0, 0
			jgt r2, 100, big
			mov r0, 1
			ja out
		big:
			mov r0, 2
		out:
			exit`)
		opts := ehdl.Options{Optimize: true, Verifier: ebpf.DefaultVerifierConfig(nil)}
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					_, err := ehdl.Compile(prog, opts)
					must(err)
				}
			})
		}
	}},

	{metric: "apps.lb_steer_ns", unit: "ns/op", scale: perNs, iters: 50_000, setup: func() func(int) time.Duration {
		bal, err := lb.New(syncView(), seg.OID(0x1b, 0), []lb.Backend{{Addr: 1}, {Addr: 2}, {Addr: 3}}, 1024)
		must(err)
		g := trace.NewConnGen(1)
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					_, err := bal.Steer(g.Next())
					must(err)
				}
			})
		}
	}},

	// One armed span per op on a fresh recorder, then the same call on a
	// nil recorder: the disarmed hook must not allocate.
	{metric: "telemetry.span_ns", unit: "ns/op", scale: perNs, iters: 200_000, setup: func() func(int) time.Duration {
		return func(n int) time.Duration {
			rec := telemetry.NewRecorder("probe")
			return timed(func() {
				for i := 0; i < n; i++ {
					t := sim.Time(i) * sim.Time(sim.Nanosecond)
					rec.Begin("probe", "op", 0, t).End(t)
				}
			})
		}
	}},
	{allocs: "telemetry.disarmed_allocs", iters: 200_000, setup: func() func(int) time.Duration {
		var rec *telemetry.Recorder
		return func(n int) time.Duration {
			return timed(func() {
				for i := 0; i < n; i++ {
					t := sim.Time(i) * sim.Time(sim.Nanosecond)
					rec.Begin("probe", "op", rec.NewRequest(), t).End(t)
					rec.Count("probe", "op", 1)
				}
			})
		}
	}},
}

// runProbes runs every probe. minimum drops each to the fewest
// iterations that still take the full path (smoke mode).
func runProbes(minimum bool, sp *spans, out map[string]float64) {
	for _, p := range probes {
		iters := p.iters
		if minimum {
			iters = 1024
		}
		runProbe(p, iters, sp, out)
	}
}
