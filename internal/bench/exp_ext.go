package bench

import (
	"fmt"
	"strconv"

	"hyperion/internal/cluster"
	"hyperion/internal/netsim"
	"hyperion/internal/sim"
)

// ClusterScaleOut goes beyond the paper's single-DPU evaluation to its
// §4 discussion question: distributed CPU-free applications over
// multiple DPUs. A client-routed, replicated KV runs over 1/2/4 DPUs;
// the harness reports shard balance and the replication/failover cost.
func ClusterScaleOut(seed uint64) Result {
	r := Result{ID: "X1", Title: "§4 — beyond one DPU: client-routed KV over a DPU rack"}
	r.Table.Header = []string{"dpus", "replicas", "ops", "mean put", "mean get", "max shard load", "failover works"}
	for _, tc := range []struct{ nodes, replicas int }{{1, 1}, {2, 1}, {4, 1}, {4, 3}} {
		eng := sim.NewEngine(seed)
		net := netsim.New(eng, netsim.DefaultConfig())
		c, err := cluster.New(eng, net, tc.nodes, tc.replicas)
		if err != nil {
			panic(err)
		}
		rt, err := cluster.NewRouter(c, "client")
		if err != nil {
			panic(err)
		}
		const ops = 300
		var putTotal, getTotal sim.Duration
		// The workload is one closed-loop callback chain (each op issues
		// the next on completion), so a single Run at the end drives it.
		failover := "n/a"
		var put, get func(i int)
		var kbuf []byte // the router copies a key before Put or Get returns
		finale := func() {
			if tc.replicas <= 1 {
				return
			}
			k := []byte("key-0000")
			c.MarkDown(c.ReplicaSet(k)[0])
			rt.Get(k, func(val []byte, err error) {
				if err == nil && string(val) == "value" {
					failover = "yes"
				} else {
					failover = "NO"
				}
			})
		}
		put = func(i int) {
			if i >= ops {
				get(0)
				return
			}
			kbuf = appendKey(kbuf[:0], i)
			t0 := eng.Now()
			rt.Put(kbuf, []byte("value"), func(err error) {
				if err != nil {
					panic(err)
				}
				putTotal += eng.Now().Sub(t0)
				put(i + 1)
			})
		}
		get = func(i int) {
			if i >= ops {
				finale()
				return
			}
			kbuf = appendKey(kbuf[:0], i)
			t0 := eng.Now()
			rt.Get(kbuf, func(_ []byte, err error) {
				if err != nil {
					panic(err)
				}
				getTotal += eng.Now().Sub(t0)
				get(i + 1)
			})
		}
		put(0)
		eng.Run()
		var maxLoad int64
		for _, n := range c.Nodes {
			if n.Puts > maxLoad {
				maxLoad = n.Puts
			}
		}
		r.Table.AddRow(itoa(int64(tc.nodes)), itoa(int64(tc.replicas)), itoa(ops),
			(putTotal / ops).String(), (getTotal / ops).String(),
			fmt.Sprintf("%d/%d", maxLoad, ops), failover)
		r.observe(eng)
	}
	r.Notes = append(r.Notes,
		"client-driven routing keeps the path coordinator-free; replication trades put latency for surviving a DPU loss")
	return r
}

// appendKey appends fmt.Sprintf("key-%04d", i) for i ≥ 0 to dst,
// without formatting through an interface.
func appendKey(dst []byte, i int) []byte {
	dst = append(dst, "key-"...)
	for p := 1000; p > 1 && i < p; p /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(i), 10)
}
