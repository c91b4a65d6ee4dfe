package bench

import (
	"fmt"

	"hyperion/internal/cluster"
	"hyperion/internal/fault"
	"hyperion/internal/netsim"
	"hyperion/internal/nvme"
	"hyperion/internal/nvmeof"
	"hyperion/internal/rpc"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
	"hyperion/internal/transport"
)

// chaosRates is the injected per-event fault probability sweep. The
// zero row doubles as the control: with every plan at rate 0 the
// datapath must behave exactly as if no fault plane existed.
var chaosRates = []float64{0, 0.001, 0.01, 0.05}

// Chaos (E16) measures how gracefully the stack degrades under
// injected faults: remote 4K reads over NVMe-oF/RDMA with packet
// drop/corrupt/reorder plus device media errors and swallowed
// commands, and a replicated cluster KV under node crash/restart
// windows. Retries, deadlines, and failover are armed, so the
// interesting output is the latency tail and goodput versus fault
// rate, not the failure count.
func Chaos(seed uint64) Result { return chaos(seed, nil) }

// ChaosTraced is Chaos with the telemetry plane armed: each
// (scenario, fault rate) cell becomes its own Perfetto process
// (one per row) with every operation traced end to end, so the
// critical-path summary shows where the injected faults' retries and
// failovers spend their time. The Result is byte-identical to Chaos
// at the same seed.
func ChaosTraced(seed uint64, rec *telemetry.Recorder) Result { return chaos(seed, rec) }

func chaos(seed uint64, rec *telemetry.Recorder) Result {
	r := Result{ID: "E16", Title: "chaos — tail latency and goodput vs injected fault rate"}
	r.Table.Header = []string{"scenario", "fault rate", "ops", "ok", "retries", "p50", "p99", "p99.9", "goodput MB/s"}
	// Rows 0..3 are the NVMe-oF scenario at each rate, rows 4..7 the
	// cluster one.
	n := len(chaosRates)
	rows := runRows(2*n, rec,
		func(i int) string {
			if i < n {
				return "e16.nvmeof-" + pct(chaosRates[i])
			}
			return "e16.cluster-" + pct(chaosRates[i-n])
		},
		func(i int, crec *telemetry.Recorder) tableRow {
			if i < n {
				return chaosNVMeoF(seed, chaosRates[i], crec)
			}
			return chaosCluster(seed, chaosRates[i-n], crec)
		})
	r.addRows(rows)
	r.Notes = append(r.Notes,
		"retry+backoff, host deadlines, and read failover hold goodput while the tail absorbs the faults; the 0% rows match the fault-free datapath exactly")
	return r
}

// chaosNVMeoF drives sequential remote 4K reads over RDMA while the
// fabric drops/corrupts/reorders frames and the device injects media
// errors and swallowed commands. The rpc client retries timed-out
// calls under a deadline budget; the initiator retries device-status
// errors; the host turns swallowed commands into StatusTimeout.
func chaosNVMeoF(seed uint64, rate float64, crec *telemetry.Recorder) tableRow {
	eng := sim.NewEngine(seed)
	net := netsim.New(eng, netsim.DefaultConfig())
	net.SetFaultPlan(fault.NewPlan(seed, "netsim").
		Set(fault.Drop, rate).Set(fault.Corrupt, rate).Set(fault.Reorder, rate))

	tn, _ := net.Attach("tgt")
	in, _ := net.Attach("ini")
	ncfg := nvme.DefaultConfig("remote")
	ncfg.Blocks = 1 << 20
	dev := nvme.New(eng, ncfg)
	dev.SetFaultPlan(fault.NewPlan(seed, "nvme").
		Set(fault.MediaErr, rate).Set(fault.Timeout, rate))
	host := nvme.NewHost(dev, nil)
	host.SetDeadline(2 * sim.Millisecond)

	srv := rpc.NewServer(eng, transport.New(eng, transport.RDMA, tn), rpc.RunToCompletion)
	nvmeof.NewTarget(srv, host, 0)
	cli := rpc.NewClient(eng, transport.New(eng, transport.RDMA, in))
	cli.Timeout = 5 * sim.Millisecond
	cli.MaxRetries = 3
	cli.RetryBackoff = 200 * sim.Microsecond
	cli.DeadlineBudget = 40 * sim.Millisecond
	ini := nvmeof.NewInitiator(cli, "tgt", ncfg.BlockSize)
	ini.MaxRetries = 3
	ini.RetryBackoff = 100 * sim.Microsecond

	if crec != nil {
		net.SetRecorder(crec)
		dev.SetRecorder(crec)
		host.SetRecorder(crec)
		srv.SetRecorder(crec)
		cli.SetRecorder(crec)
	}

	// Populate, then measure reads.
	block := make([]byte, ncfg.BlockSize)
	for i := range block {
		block[i] = byte(i)
	}
	const warm = 64
	for i := 0; i < warm; i++ {
		ini.Write(int64(i), block, func(err error) {
			if err != nil {
				panic(fmt.Sprintf("chaos: populate write %d: %v", i, err))
			}
		})
		eng.Run()
	}

	const ops = 300
	var lat sim.LatencyRecorder
	ok := 0
	start := eng.Now()
	for i := 0; i < ops; i++ {
		lba := int64(i % warm)
		ini.Span = crec.NewRequest()
		t0 := eng.Now()
		ini.Read(lba, 1, func(data []byte, err error) {
			if crec != nil {
				crec.Span("app", "read", ini.Span, t0, eng.Now())
			}
			if err == nil {
				ok++
				lat.Record(eng.Now().Sub(t0))
			}
		})
		eng.Run()
	}
	elapsed := eng.Now().Sub(start)
	goodput := float64(ok*ncfg.BlockSize) / elapsed.Seconds() / 1e6
	return engineRow([]string{"nvmeof/rdma", pct(rate), itoa(ops), itoa(int64(ok)),
		itoa(cli.Retries + ini.Retries),
		lat.Percentile(50).String(), lat.Percentile(99).String(), lat.Percentile(99.9).String(),
		f2(goodput)}, eng)
}

// chaosCluster runs a closed-loop put+get workload against a 4-node,
// 3-replica KV while seeded crash/restart windows take nodes down.
// The router fails reads over to the next replica; puts to a down
// replica surface as errors after the rpc timeout.
func chaosCluster(seed uint64, rate float64, crec *telemetry.Recorder) tableRow {
	eng := sim.NewEngine(seed)
	net := netsim.New(eng, netsim.DefaultConfig())
	c, err := cluster.New(eng, net, 4, 3)
	if err != nil {
		panic(err)
	}
	rt, err := cluster.NewRouter(c, "client")
	if err != nil {
		panic(err)
	}
	if crec != nil {
		net.SetRecorder(crec)
		c.SetRecorder(crec)
		rt.SetRecorder(crec)
	}
	plan := fault.NewPlan(seed, "cluster")
	if rate > 0 {
		// Rate scales outage frequency: mean up-time 500 µs of virtual
		// time at 0.1% down to every 10 µs at 5%, each outage 400 µs.
		// The horizon covers the whole workload (puts then gets), so
		// crashes keep landing during the read phase and the failover
		// path stays exercised at every rate.
		meanUp := sim.Duration(float64(500*sim.Microsecond) * 0.001 / rate)
		plan.Set(fault.Crash, 1)
		c.ScheduleCrashes(plan, sim.Time(1*sim.Second), meanUp, 400*sim.Microsecond)
	}

	const ops = 200
	var lat sim.LatencyRecorder
	ok := 0
	done := 0
	start := eng.Now()
	// 4 KiB values make the goodput column commensurable with the
	// nvmeof scenario's block reads.
	value := make([]byte, 4096)
	for i := range value {
		value[i] = byte(i)
	}
	var put func(i int)
	var get func(i int)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	put = func(i int) {
		if i >= ops {
			get(0)
			return
		}
		t0 := eng.Now()
		rt.Put(key(i), value, func(err error) {
			if err == nil {
				ok++
				lat.Record(eng.Now().Sub(t0))
			}
			done++
			put(i + 1)
		})
	}
	get = func(i int) {
		if i >= ops {
			return
		}
		t0 := eng.Now()
		rt.Get(key(i), func(_ []byte, err error) {
			if err == nil {
				ok++
				lat.Record(eng.Now().Sub(t0))
			}
			done++
			get(i + 1)
		})
	}
	put(0)
	eng.Run()
	elapsed := eng.Now().Sub(start)
	// Cluster goodput counts completed KV ops as value-sized payloads.
	goodput := float64(ok*len(value)) / elapsed.Seconds() / 1e6
	return engineRow([]string{"cluster/3rep", pct(rate), itoa(int64(done)), itoa(int64(ok)),
		itoa(rt.Failovers),
		lat.Percentile(50).String(), lat.Percentile(99).String(), lat.Percentile(99.9).String(),
		f2(goodput)}, eng)
}

// pct renders a fault probability as a percentage.
func pct(rate float64) string { return fmt.Sprintf("%.1f%%", rate*100) }
