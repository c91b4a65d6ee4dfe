package cluster

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"hyperion/internal/fault"
	"hyperion/internal/netsim"
	"hyperion/internal/sim"
)

func rig(t testing.TB, nodes, replicas int) (*sim.Engine, *Cluster, *Router) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := netsim.New(eng, netsim.DefaultConfig())
	c, err := New(eng, net, nodes, replicas)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(c, "client")
	if err != nil {
		t.Fatal(err)
	}
	return eng, c, r
}

func TestPutGetAcrossShards(t *testing.T) {
	eng, c, r := rig(t, 4, 1)
	const keys = 200
	for i := 0; i < keys; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		var perr error
		r.Put(k, []byte(fmt.Sprintf("val-%03d", i)), func(err error) { perr = err })
		eng.Run()
		if perr != nil {
			t.Fatal(perr)
		}
	}
	for i := 0; i < keys; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		var got []byte
		r.Get(k, func(val []byte, err error) {
			if err != nil {
				t.Errorf("Get(%s): %v", k, err)
			}
			got = append(got, val...) // lent only until the callback returns
		})
		eng.Run()
		if string(got) != fmt.Sprintf("val-%03d", i) {
			t.Fatalf("Get(%s) = %q", k, got)
		}
	}
	// Keys must actually spread: every node serves some.
	for i, n := range c.Nodes {
		if n.Puts == 0 {
			t.Fatalf("node %d received no writes", i)
		}
	}
}

func TestMissingKey(t *testing.T) {
	eng, _, r := rig(t, 2, 1)
	var got error
	r.Get([]byte("ghost"), func(_ []byte, err error) { got = err })
	eng.Run()
	if got == nil {
		t.Fatal("missing key returned no error")
	}
}

func TestReplicationWritesToAllReplicas(t *testing.T) {
	eng, c, r := rig(t, 4, 3)
	k := []byte("replicated")
	r.Put(k, []byte("v"), func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	set := c.ReplicaSet(k)
	if len(set) != 3 {
		t.Fatalf("replica set %v", set)
	}
	for _, idx := range set {
		if _, ok, _ := c.Nodes[idx].KV.Get(k); !ok {
			t.Fatalf("replica %d missing the key", idx)
		}
	}
}

func TestFailoverToReplica(t *testing.T) {
	eng, c, r := rig(t, 3, 2)
	k := []byte("survivor")
	r.Put(k, []byte("alive"), func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	primary := c.ReplicaSet(k)[0]
	c.MarkDown(primary)
	var got string
	var gerr error
	r.Get(k, func(val []byte, err error) { got, gerr = string(val), err })
	eng.Run()
	if gerr != nil || got != "alive" {
		t.Fatalf("failover get = %q,%v", got, gerr)
	}
	if r.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", r.Failovers)
	}
	// With every replica down the read fails cleanly.
	c.MarkDown(c.ReplicaSet(k)[1])
	var derr error
	r.Get(k, func(_ []byte, err error) { derr = err })
	eng.Run()
	if !errors.Is(derr, ErrNoReplicas) {
		t.Fatalf("all-down err = %v", derr)
	}
	// Revival restores service.
	c.Nodes[primary].down = false
	r.Get(k, func(val []byte, err error) { got, gerr = string(val), err })
	eng.Run()
	if gerr != nil || got != "alive" {
		t.Fatalf("post-revival get = %q,%v", got, gerr)
	}
}

func TestUnreplicatedClusterLosesDataOnFailure(t *testing.T) {
	// The contrast case: replicas=1 means a down node takes its shard
	// with it — motivating the replication the paper's §4 asks about.
	eng, c, r := rig(t, 2, 1)
	k := []byte("fragile")
	r.Put(k, []byte("v"), func(error) {})
	eng.Run()
	c.MarkDown(c.ReplicaSet(k)[0])
	var gerr error
	r.Get(k, func(_ []byte, err error) { gerr = err })
	eng.RunUntil(eng.Now().Add(sim.Duration(sim.Second)))
	if !errors.Is(gerr, ErrNoReplicas) {
		t.Fatalf("err = %v, want ErrNoReplicas", gerr)
	}
}

func TestScaleOutSpreadsLoad(t *testing.T) {
	for _, nodes := range []int{1, 4} {
		eng, c, r := rig(t, nodes, 1)
		const ops = 200
		for i := 0; i < ops; i++ {
			r.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v"), func(error) {})
			eng.Run()
		}
		max := int64(0)
		for _, n := range c.Nodes {
			if n.Puts > max {
				max = n.Puts
			}
		}
		// With 4 nodes no single node should hold everything.
		if nodes == 4 && max > ops*2/3 {
			t.Fatalf("load skewed: max shard %d of %d", max, ops)
		}
		if nodes == 1 && max != ops {
			t.Fatalf("single node got %d of %d", max, ops)
		}
	}
}

func TestBadConfig(t *testing.T) {
	eng := sim.NewEngine(1)
	net := netsim.New(eng, netsim.DefaultConfig())
	if _, err := New(eng, net, 2, 3); err == nil {
		t.Fatal("replicas > nodes accepted")
	}
	if _, err := New(eng, net, 2, 0); err == nil {
		t.Fatal("zero replicas accepted")
	}
}

// TestCrashTogglesMatchClosures: the crash schedule's toggles, waiting
// on one lane, mark the same nodes down and up at the same times, in
// the same order, as one closure per toggle on the engine's heap.
func TestCrashTogglesMatchClosures(t *testing.T) {
	type edge struct {
		at   sim.Time
		node int
		down bool
	}
	const nodes = 4
	horizon, meanUp, downFor := sim.Time(sim.Second), 10*sim.Microsecond, 400*sim.Microsecond
	for seed := uint64(1); seed <= 4; seed++ {
		eng := sim.NewEngine(1)
		var want []edge
		plan := fault.NewPlan(seed, "cluster").Set(fault.Crash, 1)
		for _, w := range plan.Windows(fault.Crash, horizon, meanUp, downFor) {
			node := plan.Pick(nodes)
			eng.At(w.Start, "crash", func() { want = append(want, edge{eng.Now(), node, true}) })
			eng.At(w.End, "restart", func() { want = append(want, edge{eng.Now(), node, false}) })
		}
		eng.Run()

		eng = sim.NewEngine(1)
		c := &Cluster{Eng: eng}
		for range nodes {
			c.Nodes = append(c.Nodes, &Node{})
		}
		cr := c.ScheduleCrashes(fault.NewPlan(seed, "cluster").Set(fault.Crash, 1), horizon, meanUp, downFor)
		var got []edge
		was := make([]bool, nodes)
		for eng.Step() {
			for i, n := range c.Nodes {
				if n.down != was[i] {
					got = append(got, edge{eng.Now(), i, n.down})
					was[i] = n.down
				}
			}
		}
		if cr.Windows == 0 || len(got) != 2*cr.Windows || !slices.Equal(got, want) {
			t.Fatalf("seed %d: %d windows, lane toggles differ from closures (%d vs %d edges)", seed, cr.Windows, len(got), len(want))
		}
	}
}
