package chase

import (
	"testing"

	"hyperion/internal/core"
	"hyperion/internal/ebpf"
	"hyperion/internal/netsim"
	"hyperion/internal/rpc"
	"hyperion/internal/seg"
	"hyperion/internal/sim"
	"hyperion/internal/storage/bptree"
	"hyperion/internal/transport"
)

// rig boots a DPU with a populated tree and a remote client.
func rig(t testing.TB, keys int) (*sim.Engine, *Service, *Client, *bptree.Tree) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := netsim.New(eng, netsim.DefaultConfig())
	cfg := core.DefaultConfig("chase")
	cfg.NVMe.Blocks = 1 << 20
	cfg.Seg.DRAMBytes = 64 << 20
	cfg.Seg.CheckpointEvery = 0
	d, _, err := core.Boot(eng, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := bptree.Create(d.View, seg.OID(0xBEE, 0), true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if err := tree.Insert(uint64(i*2), uint64(i*1000)); err != nil {
			t.Fatal(err)
		}
	}
	d.View.TakeCost() // discard load-phase cost
	img, err := Compile(d.Cfg.AuthTag)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(d, d.CtrlSrv, tree, img)
	cn, _ := net.Attach("client")
	cli := rpc.NewClient(eng, transport.New(eng, core.Transport, cn))
	cli.Timeout = sim.Duration(sim.Second)
	return eng, svc, NewClient(cli, d.ControlAddr()), tree
}

func TestStepProgramVerifies(t *testing.T) {
	prog, err := ebpf.Assemble(StepProgram())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ebpf.DefaultVerifierConfig(nil)
	cfg.CtxSize = CtxBytes
	if err := ebpf.Verify(prog, cfg); err != nil {
		t.Fatalf("per-hop program rejected: %v", err)
	}
	if len(prog) > 400 {
		t.Fatalf("program unexpectedly large: %d insns", len(prog))
	}
}

func TestOffloadGetFindsKeys(t *testing.T) {
	eng, _, cli, tree := rig(t, 20000)
	if tree.Height() < 3 {
		t.Fatalf("height = %d, want ≥3 for a meaningful chase", tree.Height())
	}
	for _, k := range []uint64{0, 2, 19998, 10000} {
		var got GetReply
		var gerr error
		cli.OffloadGet(k, func(r GetReply, err error) { got, gerr = r, err })
		eng.Run()
		if gerr != nil || !got.Found || got.Value != k/2*1000 {
			t.Fatalf("OffloadGet(%d) = %+v, %v", k, got, gerr)
		}
		if got.Hops != tree.Height() {
			t.Fatalf("hops = %d, want height %d", got.Hops, tree.Height())
		}
	}
	var miss GetReply
	cli.OffloadGet(1, func(r GetReply, err error) { miss = r })
	eng.Run()
	if miss.Found {
		t.Fatal("found absent key")
	}
}

func TestClientSideGetMatchesOffload(t *testing.T) {
	eng, _, cli, _ := rig(t, 20000)
	r := sim.NewRand(5)
	for i := 0; i < 30; i++ {
		k := uint64(r.Intn(40000))
		var off, cls GetReply
		var offErr, clsErr error
		cli.OffloadGet(k, func(rep GetReply, err error) { off, offErr = rep, err })
		eng.Run()
		cli.ClientSideGet(k, func(rep GetReply, err error) { cls, clsErr = rep, err })
		eng.Run()
		if offErr != nil || clsErr != nil {
			t.Fatalf("key %d: errs %v %v", k, offErr, clsErr)
		}
		if off.Found != cls.Found || off.Value != cls.Value {
			t.Fatalf("key %d: offload %+v vs client %+v", k, off, cls)
		}
	}
}

func TestOffloadLatencyBeatsClientSide(t *testing.T) {
	eng, _, cli, tree := rig(t, 20000)
	h := tree.Height()
	measure := func(get func(uint64, func(GetReply, error))) sim.Duration {
		start := eng.Now()
		var end sim.Time
		get(4242, func(GetReply, error) { end = eng.Now() })
		eng.Run()
		return end.Sub(start)
	}
	off := measure(cli.OffloadGet)
	cls := measure(cli.ClientSideGet)
	if off >= cls {
		t.Fatalf("offload %v not faster than client-side %v (height %d)", off, cls, h)
	}
	// Client-side pays ≥ height RTT-ish hops; offloaded pays ~1.
	if cls < off+sim.Duration(h-1)*2*sim.Microsecond {
		t.Logf("warning: separation small: off=%v cls=%v", off, cls)
	}
}

func TestRTTAccounting(t *testing.T) {
	eng, svc, cli, tree := rig(t, 20000)
	cli.OffloadGet(100, func(GetReply, error) {})
	eng.Run()
	if cli.RTTs != 1 {
		t.Fatalf("offload RTTs = %d, want 1", cli.RTTs)
	}
	cli.RTTs = 0
	cli.ClientSideGet(100, func(GetReply, error) {})
	eng.Run()
	want := int64(1 + tree.Height()) // meta + one per level
	if cli.RTTs != want {
		t.Fatalf("client-side RTTs = %d, want %d", cli.RTTs, want)
	}
	if svc.NodeFetches != int64(tree.Height()) {
		t.Fatalf("node fetches = %d", svc.NodeFetches)
	}
}

func TestStepProgramAgainstTreeModel(t *testing.T) {
	// The verified program must agree with the Go traversal for many
	// random keys (tests the unrolled binary search edge cases).
	eng, _, cli, tree := rig(t, 5000)
	r := sim.NewRand(11)
	for i := 0; i < 100; i++ {
		k := uint64(r.Intn(12000))
		wantVal, wantOK, err := tree.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		var got GetReply
		var gerr error
		cli.OffloadGet(k, func(rep GetReply, err error) { got, gerr = rep, err })
		eng.Run()
		if gerr != nil {
			t.Fatalf("key %d: %v", k, gerr)
		}
		if got.Found != wantOK || (wantOK && got.Value != wantVal) {
			t.Fatalf("key %d: program %+v, model (%d,%v)", k, got, wantVal, wantOK)
		}
	}
}

func BenchmarkOffloadGet(b *testing.B) {
	eng, _, cli, _ := rig(b, 50000)
	r := sim.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cli.OffloadGet(uint64(r.Intn(100000)), func(GetReply, error) {})
		eng.Run()
	}
}
