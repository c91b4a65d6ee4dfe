package netsim

import (
	"testing"

	"hyperion/internal/sim"
)

func TestConfigLookahead(t *testing.T) {
	cfg := DefaultConfig()
	la := cfg.Lookahead()
	if la <= 0 {
		t.Fatal("lookahead must be positive")
	}
	if want := cfg.PropDelay + serTime(MinFrameBytes); la != want {
		t.Errorf("Lookahead() = %v, want %v", la, want)
	}
}

func TestPartition(t *testing.T) {
	cases := []struct {
		n, shards int
		want      []int
	}{
		{4, 1, []int{0, 0, 0, 0}},
		{4, 2, []int{0, 0, 1, 1}},
		{5, 2, []int{0, 0, 0, 1, 1}},
		{4, 4, []int{0, 1, 2, 3}},
		{2, 4, []int{0, 1}},
		{0, 3, []int{}},
	}
	for _, c := range cases {
		got := Partition(c.n, c.shards)
		if len(got) != len(c.want) {
			t.Errorf("Partition(%d,%d) len=%d want %d", c.n, c.shards, len(got), len(c.want))
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Partition(%d,%d) = %v, want %v", c.n, c.shards, got, c.want)
				break
			}
		}
	}
}

func TestBoundaryLinkDelay(t *testing.T) {
	cfg := DefaultConfig()
	l := NewBoundaryLink(cfg)
	la := cfg.Lookahead()
	// Idle link: minimum-size send takes exactly the lookahead.
	if d := l.Delay(0, 0); d != la {
		t.Errorf("idle min-frame delay %v, want lookahead %v", d, la)
	}
	// Back-to-back sends queue behind the serialization horizon, so
	// delays are non-decreasing and never under the lookahead.
	prev := sim.Duration(0)
	for i := 0; i < 10; i++ {
		d := l.Delay(0, 4096)
		if d < la {
			t.Fatalf("send %d: delay %v below lookahead %v", i, d, la)
		}
		if d <= prev {
			t.Fatalf("send %d: delay %v not increasing past %v under a busy link", i, d, prev)
		}
		prev = d
	}
	// After the link drains, delay falls back to ser+prop.
	now := l.busy.Add(sim.Millisecond)
	if d := l.Delay(now, 4096); d != serTime(4096)+cfg.PropDelay {
		t.Errorf("drained delay %v, want %v", d, serTime(4096)+cfg.PropDelay)
	}
}
