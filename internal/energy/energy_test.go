package energy

import (
	"testing"

	"hyperion/internal/sim"
)

func TestPaperRatios(t *testing.T) {
	h, s := Hyperion(), Server1U()
	if r := VolumeRatio(h, s); r < 5 || r > 10 {
		t.Fatalf("volume ratio %.1f outside the paper's 5-10×", r)
	}
	if r := TDPRatio(h, s); r < 4 || r > 8 {
		t.Fatalf("TDP ratio %.1f outside the paper's 4-8×", r)
	}
}

func TestMeterIdleVsLoaded(t *testing.T) {
	h := Hyperion()
	idle := NewMeter(h, 0)
	j := idle.Joules(sim.Time(sim.Second))
	if j < h.IdleW*0.99 || j > h.IdleW*1.01 {
		t.Fatalf("idle second = %.1f J, want ≈ %.1f", j, h.IdleW)
	}
	full := NewMeter(h, 0)
	full.SetUtilization(0, 1.0)
	j = full.Joules(sim.Time(sim.Second))
	if j < h.MaxTDPW*0.99 || j > h.MaxTDPW*1.01 {
		t.Fatalf("loaded second = %.1f J, want ≈ %.1f", j, h.MaxTDPW)
	}
}

func TestMeterPiecewise(t *testing.T) {
	h := Platform{Name: "t", MaxTDPW: 100, IdleW: 0, VolumeL: 1}
	m := NewMeter(h, 0)
	m.SetUtilization(0, 0.5)
	m.SetUtilization(sim.Time(sim.Second), 1.0)
	j := m.Joules(sim.Time(2 * sim.Second))
	if j < 149 || j > 151 {
		t.Fatalf("piecewise = %.1f J, want 150", j)
	}
}

func TestJoulesPerOp(t *testing.T) {
	m := NewMeter(Hyperion(), 0)
	m.SetUtilization(0, 1.0)
	for i := 0; i < 1000; i++ {
		m.AddOp()
	}
	jpo := m.JoulesPerOp(sim.Time(sim.Second))
	if jpo < 0.2 || jpo > 0.25 {
		t.Fatalf("J/op = %v", jpo)
	}
	if m.Ops() != 1000 {
		t.Fatalf("ops = %d", m.Ops())
	}
	empty := NewMeter(Hyperion(), 0)
	if empty.JoulesPerOp(100) != 0 {
		t.Fatal("J/op with zero ops should be 0")
	}
}

func TestUtilizationClamped(t *testing.T) {
	m := NewMeter(Platform{MaxTDPW: 100, IdleW: 0}, 0)
	m.SetUtilization(0, 5.0)
	if j := m.Joules(sim.Time(sim.Second)); j > 101 {
		t.Fatalf("unclamped utilization: %.1f J", j)
	}
}
