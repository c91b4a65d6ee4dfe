package fail2ban

import (
	"encoding/binary"
	"testing"

	"hyperion/internal/core"
	"hyperion/internal/netsim"
	"hyperion/internal/sim"
	"hyperion/internal/trace"
)

func deploy(t testing.TB, threshold int) (*sim.Engine, *core.DPU, *Filter) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := netsim.New(eng, netsim.DefaultConfig())
	cfg := core.DefaultConfig("f2b")
	cfg.NVMe.Blocks = 1 << 20
	cfg.Seg.DRAMBytes = 64 << 20
	d, _, err := core.Boot(eng, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Deploy(d, threshold)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run() // finish reconfiguration
	return eng, d, f
}

func pkt(src uint32, fail bool) trace.Packet {
	return trace.Packet{SrcIP: src, DstIP: 1, DstPort: 22, Proto: 6, Bytes: 100, AuthFail: fail}
}

func TestCleanTrafficPasses(t *testing.T) {
	eng, _, f := deploy(t, 3)
	for i := 0; i < 50; i++ {
		if err := f.Process(pkt(uint32(1000+i), false), func(v int) {
			if v != VerdictPass {
				t.Errorf("clean packet verdict %d", v)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if f.Passed != 50 || f.Dropped != 0 {
		t.Fatalf("passed=%d dropped=%d", f.Passed, f.Dropped)
	}
}

func TestBanAfterThreshold(t *testing.T) {
	eng, _, f := deploy(t, 3)
	const attacker = 0x0a0a0a0a
	var verdicts []int
	for i := 0; i < 5; i++ {
		_ = f.Process(pkt(attacker, true), func(v int) { verdicts = append(verdicts, v) })
		eng.Run()
	}
	// Failures 1,2 pass; failure 3 triggers the ban; 4,5 drop.
	want := []int{VerdictPass, VerdictPass, VerdictBanned, VerdictDrop, VerdictDrop}
	for i, w := range want {
		if verdicts[i] != w {
			t.Fatalf("verdicts = %v, want %v", verdicts, want)
		}
	}
	var key [4]byte
	binary.LittleEndian.PutUint32(key[:], attacker)
	if _, banned := f.bans.Lookup(key[:]); !banned {
		t.Fatal("attacker not in ban map")
	}
	// Clean packets from the banned source also drop.
	var v int
	_ = f.Process(pkt(attacker, false), func(got int) { v = got })
	eng.Run()
	if v != VerdictDrop {
		t.Fatalf("clean packet from banned source verdict %d", v)
	}
}

func TestBanLogPersisted(t *testing.T) {
	eng, _, f := deploy(t, 2)
	attackers := []uint32{0x01010101, 0x02020202, 0x03030303}
	for _, a := range attackers {
		for i := 0; i < 2; i++ {
			_ = f.Process(pkt(a, true), func(int) {})
			eng.Run()
		}
	}
	logged, err := f.BannedSources()
	if err != nil {
		t.Fatal(err)
	}
	if len(logged) != 3 {
		t.Fatalf("logged bans = %v", logged)
	}
	seen := map[uint32]bool{}
	for _, s := range logged {
		seen[s] = true
	}
	for _, a := range attackers {
		if !seen[a] {
			t.Fatalf("attacker %#x missing from persistent log", a)
		}
	}
}

func TestMixedTraceOnlyBansAttackers(t *testing.T) {
	eng, _, f := deploy(t, 5)
	g := trace.NewAttackGen(7, 4)
	for i := 0; i < 3000; i++ {
		_ = f.Process(g.Next(), func(int) {})
		if i%100 == 0 {
			eng.Run()
		}
	}
	eng.Run()
	if f.Banned == 0 {
		t.Fatal("no attackers banned")
	}
	logged, err := f.BannedSources()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range logged {
		if s>>16 != 0x0a00 { // AttackGen's attackers live in 10.0.0.0/16
			t.Fatalf("benign source %#x banned", s)
		}
	}
	if f.Passed == 0 {
		t.Fatal("all traffic dropped")
	}
}

func TestPipelineStats(t *testing.T) {
	_, _, f := deploy(t, 3)
	st := f.Pipeline().Stats
	if st.Instructions == 0 || st.Depth == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HelperCalls < 2 {
		t.Fatalf("helper calls = %d, want ≥2 (map ops)", st.HelperCalls)
	}
}

// BenchmarkFilterProcess filters E8's kind of trace. Every packet rides a
// pooled context with its own header buffer and completes through it, so
// once the attackers are banned a packet allocates nothing (asserted
// in-line).
func BenchmarkFilterProcess(b *testing.B) {
	eng, _, f := deploy(b, 3)
	g := trace.NewAttackGen(1, 8)
	verdict := func(int) {}
	one := func() {
		if err := f.Process(g.Next(), verdict); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
	for i := 0; i < 2000; i++ { // every attacker crosses the threshold
		one()
	}
	if a := testing.AllocsPerRun(500, one); a != 0 {
		b.Fatalf("a filtered packet allocates %v objects in steady state, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Process(g.Next(), verdict)
		if i%256 == 0 {
			eng.Run()
		}
	}
	eng.Run()
}
