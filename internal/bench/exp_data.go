package bench

import (
	"fmt"

	"hyperion/internal/netsim"
	"hyperion/internal/nvme"
	"hyperion/internal/nvmeof"
	"hyperion/internal/rpc"
	"hyperion/internal/seg"
	"hyperion/internal/sim"
	"hyperion/internal/storage/colfmt"
	"hyperion/internal/storage/hfs"
	"hyperion/internal/storage/kvssd"
	"hyperion/internal/trace"
	"hyperion/internal/transport"
	"hyperion/internal/wire"
)

// ColumnarScan reproduces §2.3: annotation-driven file access plus
// columnar predicate pushdown executed next to the data, against the
// CPU-mediated alternative that ships the whole object to the client.
func ColumnarScan(seed uint64) Result {
	r := Result{ID: "E12", Title: "§2.3 — file + columnar access without a CPU"}
	r.Table.Header = []string{"approach", "device reads", "bytes moved", "modeled time", "rows matched"}

	eng, v := newView(4, seed)
	// Build a filesystem with a columnar table inside it.
	fs, err := hfs.Mkfs(v, seg.OID(0xF5, 0), true)
	if err != nil {
		panic(err)
	}
	if err := fs.Mkdir("/warehouse"); err != nil {
		panic(err)
	}
	const rows = 100000
	w := colfmt.NewWriter(v, colfmt.Schema{Columns: []colfmt.Column{
		{Name: "ts", Type: colfmt.TypeInt64},
		{Name: "value", Type: colfmt.TypeInt64},
	}}, 4096)
	for i := 0; i < rows; i++ {
		if err := w.AppendInt64s(int64(i), int64(i%1000)); err != nil {
			panic(err)
		}
	}
	tableID := seg.OID(0xF6, 1)
	if err := w.Close(tableID, true); err != nil {
		panic(err)
	}
	// Record the table's location in the filesystem (a pointer file), so
	// the access path really starts from a path lookup.
	if err := fs.WriteFile("/warehouse/events.tbl", []byte(tableID.String())); err != nil {
		panic(err)
	}
	v.TakeCost()

	// (a) DPU-side: annotated path lookup + pushdown scan near data.
	ann := fs.Annotate()
	plan, err := hfs.CompilePlan("/warehouse/events.tbl")
	if err != nil {
		panic(err)
	}
	reads0, bytes0 := v.DevReads, v.BytesRead
	ptr, err := hfs.ExecPlan(v, ann, plan)
	if err != nil {
		panic(err)
	}
	oid, err := seg.ParseObjectID(string(ptr))
	if err != nil {
		panic(err)
	}
	rd, err := colfmt.OpenReader(v, oid)
	if err != nil {
		panic(err)
	}
	matched := 0
	if err := rd.ScanInt64("ts", 60000, 60999, func(b *colfmt.Batch, row int) bool {
		matched++
		return true
	}); err != nil {
		panic(err)
	}
	dpuTime := v.TakeCost()
	r.Table.AddRow("hyperion (annotated plan + pushdown)",
		itoa(v.DevReads-reads0), itoa(v.BytesRead-bytes0), dpuTime.String(), itoa(int64(matched)))

	// (b) CPU-mediated: the client fetches the whole table object over
	// the network and scans it host-side (no pushdown near data).
	sg, err := v.Stat(oid)
	if err != nil {
		panic(err)
	}
	reads1, bytes1 := v.DevReads, v.BytesRead
	if _, err := v.ReadAt(oid, 0, sg.Size); err != nil {
		panic(err)
	}
	// Network transfer of the whole object at 100 GbE + host scan cost.
	netTime := sim.Duration(float64(sg.Size) / 12.5e9 * float64(sim.Second))
	hostScan := sim.Duration(rows) * 2 * sim.Nanosecond
	cpuTime := v.TakeCost() + netTime + hostScan
	r.Table.AddRow("cpu-mediated (fetch all, scan on host)",
		itoa(v.DevReads-reads1), itoa(v.BytesRead-bytes1), cpuTime.String(), itoa(int64(matched)))
	r.Notes = append(r.Notes, fmt.Sprintf("speedup %.1fx; pushdown skipped %d of %d row groups",
		float64(cpuTime)/float64(dpuTime), rd.GroupsSkipped, rd.Groups()))
	r.observe(eng)
	return r
}

// KVStore reproduces the §2.4 KV-SSD workloads: YCSB mixes over both
// index backends (the B+/LSM ablation of §4).
func KVStore(seed uint64) Result {
	r := Result{ID: "E13", Title: "§2.4 — KV-SSD: YCSB mixes × index backend"}
	r.Table.Header = []string{"mix", "backend", "ops", "mean op", "dev reads/op", "dev writes/op"}
	const keys = 2000
	const ops = 4000
	for _, mix := range []trace.YCSBMix{trace.YCSBA, trace.YCSBB, trace.YCSBC} {
		for _, be := range []kvssd.Backend{kvssd.BackendBTree, kvssd.BackendLSM} {
			eng, v := newView(4, seed)
			kv, err := kvssd.Create(v, seg.OID(0x4B, 0), be, true)
			if err != nil {
				panic(err)
			}
			g := trace.NewKVGen(seed+20, keys, mix, 256)
			for _, k := range g.LoadKeys() {
				if err := kv.Put(trace.Key(k), g.Value(k)); err != nil {
					panic(err)
				}
			}
			v.TakeCost()
			r0, w0 := v.DevReads, v.DevWrites
			var total sim.Duration
			var vbuf []byte // every read lands here: the values are not looked at
			for i := 0; i < ops; i++ {
				op := g.Next()
				switch op.Kind {
				case 'r':
					if vbuf, _, err = kv.GetAppend(vbuf[:0], op.Key); err != nil {
						panic(err)
					}
				case 'u':
					if err := kv.Put(op.Key, op.Value); err != nil {
						panic(err)
					}
				}
				total += v.TakeCost()
			}
			r.Table.AddRow(mix.String(), be.String(), itoa(ops),
				(total / ops).String(),
				f2(float64(v.DevReads-r0)/ops), f2(float64(v.DevWrites-w0)/ops))
			r.observe(eng)
		}
	}
	r.Notes = append(r.Notes, "LSM buffers updates in the memtable (fewer device writes per op); the B+ tree reads fewer pages per get")
	return r
}

// NVMeoF reproduces the §2 remote-storage result: 4 KiB and 64 KiB
// accesses over NVMe-oF on each application-selected transport.
func NVMeoF(seed uint64) Result {
	r := Result{ID: "E14", Title: "§2 — NVMe-oF across application-selected transports"}
	r.Table.Header = []string{"transport", "4K read", "4K write", "64K read", "local flash", "remote tax"}
	local := nvme.DefaultConfig("x").ReadLatency
	for _, kind := range transport.Kinds() {
		eng := sim.NewEngine(seed)
		net := netsim.New(eng, netsim.DefaultConfig())
		tn, _ := net.Attach("tgt")
		in, _ := net.Attach("ini")
		ncfg := nvme.DefaultConfig("remote")
		ncfg.Blocks = 1 << 20
		host := nvme.NewHost(nvme.New(eng, ncfg), nil)
		srv := rpc.NewServer(eng, transport.New(eng, kind, tn), rpc.RunToCompletion)
		nvmeof.NewTarget(srv, host, 0)
		cli := rpc.NewClient(eng, transport.New(eng, kind, in))
		cli.Timeout = sim.Duration(sim.Second)

		call := func(method string, arg any, argBytes int) (sim.Duration, bool) {
			start := eng.Now()
			var end sim.Time
			ok := true
			cli.Call("tgt", method, arg, argBytes, func(val any, err error) {
				end = eng.Now()
				if err != nil {
					ok = false
				}
			})
			eng.Run()
			return end.Sub(start), ok
		}
		caps := wire.NewPool(64)
		r4, ok1 := call(nvmeof.MethodRead, nvmeof.EncodeReadArgs(caps, 0, 1), 64)
		w4, ok2 := call(nvmeof.MethodWrite, nvmeof.EncodeWriteArgs(caps, 8, make([]byte, 4096)), 4160)
		r64, ok3 := call(nvmeof.MethodRead, nvmeof.EncodeReadArgs(caps, 16, 16), 64)
		tax := "-"
		if ok1 && ok2 && ok3 {
			tax = f2(float64(r4)/float64(local)) + "x"
		} else if kind == transport.UDP {
			tax = "lossy"
		}
		r.Table.AddRow(kind.String(), r4.String(), w4.String(), r64.String(),
			sim.Duration(local).String(), tax)
		r.observe(eng)
	}
	r.Notes = append(r.Notes, "remote flash ≈ local flash with fast transports (ReFlex); TCP pays software per-frame cost, Homa/RDMA do not")
	return r
}
