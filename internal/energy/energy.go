// Package energy models power, energy, and packaging volume for the E3
// comparison: the paper reports Hyperion at ≈230 W max TDP in a PCIe-card
// form factor versus ≈1600 W in a 1U SuperMicro X12-class server, i.e.
// 4–8× better energy efficiency and 5–10× better volume density.
package energy

import (
	"hyperion/internal/sim"
)

// Platform describes one deployment target's power/volume envelope.
type Platform struct {
	Name    string
	MaxTDPW float64 // watts at full load
	IdleW   float64 // watts at idle
	VolumeL float64 // packaging volume, liters
}

// Hyperion is the DPU card: U280 (225 W board power) + 4 NVMe (~5 W
// each) + crossover board ≈ 230 W fully loaded (the paper's number), in
// roughly a double-width PCIe card enclosure.
func Hyperion() Platform {
	return Platform{Name: "hyperion", MaxTDPW: 230, IdleW: 55, VolumeL: 2.6}
}

// Server1U is the SuperMicro X12-class 1U comparison point: dual-socket
// ~1600 W max TDP (the paper's number) in a 1U chassis (~17.5 L with
// rails and airflow clearance).
func Server1U() Platform {
	return Platform{Name: "1u-server", MaxTDPW: 1600, IdleW: 350, VolumeL: 17.5}
}

// VolumeRatio returns how many times more compact a is than b.
func VolumeRatio(a, b Platform) float64 { return b.VolumeL / a.VolumeL }

// TDPRatio returns b's max TDP over a's.
func TDPRatio(a, b Platform) float64 { return b.MaxTDPW / a.MaxTDPW }

// Meter integrates energy over simulated time with a piecewise-constant
// utilization signal.
type Meter struct {
	p        Platform
	lastT    sim.Time
	lastUtil float64
	joules   float64
	ops      int64
}

// NewMeter starts metering platform p at time now with utilization 0.
func NewMeter(p Platform, now sim.Time) *Meter {
	return &Meter{p: p, lastT: now}
}

// SetUtilization records a utilization change at time now (0..1).
func (m *Meter) SetUtilization(now sim.Time, util float64) {
	m.accumulate(now)
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	m.lastUtil = util
}

func (m *Meter) accumulate(now sim.Time) {
	dt := now.Sub(m.lastT).Seconds()
	if dt > 0 {
		watts := m.p.IdleW + (m.p.MaxTDPW-m.p.IdleW)*m.lastUtil
		m.joules += watts * dt
		m.lastT = now
	}
}

// AddOp counts one completed operation (for joules-per-op).
func (m *Meter) AddOp() { m.ops++ }

// Joules returns the total energy consumed up to time now.
func (m *Meter) Joules(now sim.Time) float64 {
	m.accumulate(now)
	return m.joules
}

// JoulesPerOp returns energy per completed operation.
func (m *Meter) JoulesPerOp(now sim.Time) float64 {
	j := m.Joules(now)
	if m.ops == 0 {
		return 0
	}
	return j / float64(m.ops)
}

// Ops returns the completed operation count.
func (m *Meter) Ops() int64 { return m.ops }
