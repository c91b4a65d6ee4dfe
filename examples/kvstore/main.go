// KV store example: a network-attached KV-SSD served entirely by the
// DPU (Figure 2's "KV-SSD" box), exercised by a remote YCSB client over
// the RDMA-style transport. Shows the C2 pure-Hyperion workload class:
// the request never touches a CPU — transport, index walk, value-log
// access, and reply all happen on the card.
package main

import (
	"fmt"
	"log"

	"hyperion/internal/core"
	"hyperion/internal/netsim"
	"hyperion/internal/rpc"
	"hyperion/internal/seg"
	"hyperion/internal/sim"
	"hyperion/internal/storage/kvssd"
	"hyperion/internal/trace"
	"hyperion/internal/transport"
)

func main() {
	eng := sim.NewEngine(7)
	net := netsim.New(eng, netsim.DefaultConfig())
	dpu, _, err := core.Boot(eng, net, core.DefaultConfig("kv-dpu"))
	if err != nil {
		log.Fatal(err)
	}

	// The store: LSM-indexed KV over the segment store (durable).
	kv, err := kvssd.Create(dpu.View, seg.OID(0x4B, 0), kvssd.BackendLSM, true)
	if err != nil {
		log.Fatal(err)
	}

	// Service: two RPC methods, run-to-completion, with storage cost
	// charged back into simulated time.
	dpu.CtrlSrv.Handle("kv.get", func(arg any, respond func(any, int, error)) {
		val, ok, err := kv.Get(arg.([]byte))
		eng.After(dpu.View.TakeCost(), "kv.get", func() {
			if err != nil {
				respond(nil, 64, err)
				return
			}
			if !ok {
				respond(nil, 64, nil)
				return
			}
			respond(val, len(val)+64, nil)
		})
	})
	dpu.CtrlSrv.Handle("kv.put", func(arg any, respond func(any, int, error)) {
		pair := arg.([2][]byte)
		err := kv.Put(pair[0], pair[1])
		eng.After(dpu.View.TakeCost(), "kv.put", func() { respond(true, 64, err) })
	})

	// Client on another host.
	cn, err := net.Attach("ycsb-client")
	if err != nil {
		log.Fatal(err)
	}
	cli := rpc.NewClient(eng, transport.New(eng, transport.RDMA, cn))
	cli.Timeout = sim.Duration(sim.Second)

	// Load phase.
	const keys = 5000
	g := trace.NewKVGen(1, keys, trace.YCSBB)
	var kbuf, vbuf []byte // Put copies what it keeps
	for _, k := range g.LoadKeys() {
		kbuf, vbuf = trace.AppendKey(kbuf[:0], k), g.AppendValue(vbuf[:0], k)
		if err := kv.Put(kbuf, vbuf); err != nil {
			log.Fatal(err)
		}
	}
	dpu.View.TakeCost()
	fmt.Printf("loaded %d keys (%d bytes of value log)\n", keys, kv.LogBytes())

	// Run phase: YCSB-B (95% reads), closed loop.
	const ops = 3000
	var lat sim.LatencyRecorder
	misses := 0
	for i := 0; i < ops; i++ {
		op := g.Next()
		t0 := eng.Now()
		if op.Kind == 'r' {
			cli.Call(dpu.ControlAddr(), "kv.get", op.Key, 64, func(val any, err error) {
				if err != nil {
					log.Fatal(err)
				}
				if val == nil {
					misses++
				}
				lat.Record(eng.Now().Sub(t0))
			})
		} else {
			cli.Call(dpu.ControlAddr(), "kv.put", [2][]byte{op.Key, op.Value}, 320, func(val any, err error) {
				if err != nil {
					log.Fatal(err)
				}
				lat.Record(eng.Now().Sub(t0))
			})
		}
		eng.Run()
	}
	fmt.Printf("ycsb-b over the wire: %s\n", lat.Summary())
	fmt.Printf("misses=%d puts=%d gets=%d\n", misses, kv.Puts, kv.Gets)
}
