package fault

import (
	"testing"

	"hyperion/internal/sim"
)

func TestNilPlanIsNoOp(t *testing.T) {
	var p *Plan
	if p.Roll(Drop) {
		t.Fatal("nil plan rolled a fault")
	}
	if p.Count(Drop) != 0 {
		t.Fatal("nil plan has counts")
	}
	if ws := p.Windows(Crash, 1e12, 1e9, 1e6); ws != nil {
		t.Fatalf("nil plan produced windows: %v", ws)
	}
}

// Zero-probability rolls must not consume generator state: a plan that
// rolls disabled kinds a thousand times must produce the same armed
// stream as a fresh plan. This is the property that keeps zero-rate
// chaos runs byte-identical to runs without any plan installed.
func TestZeroProbConsumesNoState(t *testing.T) {
	a := NewPlan(42, "netsim").Set(Drop, 0.5)
	b := NewPlan(42, "netsim").Set(Drop, 0.5)
	for i := 0; i < 1000; i++ {
		b.Roll(Corrupt) // disabled: must be free
		b.Roll(Reorder) // disabled: must be free
	}
	for i := 0; i < 200; i++ {
		if a.Roll(Drop) != b.Roll(Drop) {
			t.Fatalf("streams diverged at roll %d: zero-prob rolls consumed state", i)
		}
	}
	if got := b.Count(Corrupt) + b.Count(Reorder); got != 0 {
		t.Fatalf("disabled kinds counted %d injections", got)
	}
}

func TestRollDeterministicAndCounted(t *testing.T) {
	a := NewPlan(7, "nvme").Set(MediaErr, 0.25)
	b := NewPlan(7, "nvme").Set(MediaErr, 0.25)
	hits := uint64(0)
	for i := 0; i < 4000; i++ {
		ra, rb := a.Roll(MediaErr), b.Roll(MediaErr)
		if ra != rb {
			t.Fatalf("same seed diverged at roll %d", i)
		}
		if ra {
			hits++
		}
	}
	if a.Count(MediaErr) != hits || a.Count(Drop) != 0 {
		t.Fatalf("count=%d drops=%d want %d and 0", a.Count(MediaErr), a.Count(Drop), hits)
	}
	// 0.25 ± generous slack over 4000 trials.
	if hits < 800 || hits > 1200 {
		t.Fatalf("hit rate %d/4000 far from 0.25", hits)
	}
}

func TestLayersDrawIndependentStreams(t *testing.T) {
	a := NewPlan(1, "netsim").Set(Drop, 0.5)
	b := NewPlan(1, "fabric").Set(Drop, 0.5)
	same := 0
	for i := 0; i < 256; i++ {
		if a.Roll(Drop) == b.Roll(Drop) {
			same++
		}
	}
	if same == 256 {
		t.Fatal("different layers produced identical roll streams")
	}
}

func TestSetClamps(t *testing.T) {
	p := NewPlan(1, "x").Set(Drop, -0.5).Set(Corrupt, 2.0)
	if p.Roll(Drop) {
		t.Fatal("negative prob armed the kind")
	}
	if !p.Roll(Corrupt) {
		t.Fatal("prob > 1 did not clamp to always-fire")
	}
}

func TestWindowsBoundedAndOrdered(t *testing.T) {
	horizon := sim.Time(1_000_000_000_000) // 1 s
	meanUp := sim.Duration(50_000_000_000) // 50 ms
	downFor := sim.Duration(5_000_000_000) // 5 ms
	p := NewPlan(3, "cluster").Set(Crash, 1)
	ws := p.Windows(Crash, horizon, meanUp, downFor)
	if len(ws) == 0 {
		t.Fatal("no windows generated over 20 mean-up periods")
	}
	prev := sim.Time(0)
	for i, w := range ws {
		if w.Start >= horizon {
			t.Fatalf("window %d starts at %d past horizon %d", i, w.Start, horizon)
		}
		if w.End != w.Start+sim.Time(downFor) {
			t.Fatalf("window %d has length %d want %d", i, w.End-w.Start, downFor)
		}
		if w.Start < prev {
			t.Fatalf("window %d overlaps previous (start %d < prev end %d)", i, w.Start, prev)
		}
		prev = w.End
	}
	if p.Count(Crash) != uint64(len(ws)) {
		t.Fatalf("count %d != windows %d", p.Count(Crash), len(ws))
	}
	// Same seed, same schedule.
	q := NewPlan(3, "cluster").Set(Crash, 1)
	ws2 := q.Windows(Crash, horizon, meanUp, downFor)
	if len(ws) != len(ws2) {
		t.Fatalf("window count differs across identical seeds: %d vs %d", len(ws), len(ws2))
	}
	for i := range ws {
		if ws[i] != ws2[i] {
			t.Fatalf("window %d differs: %v vs %v", i, ws[i], ws2[i])
		}
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Drop: "drop", Corrupt: "corrupt", Reorder: "reorder",
		MediaErr: "media_err", Timeout: "timeout", Crash: "crash", Evict: "evict",
		Kind(250): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("Kind(%d).String() = %q want %q", k, k.String(), s)
		}
	}
}
