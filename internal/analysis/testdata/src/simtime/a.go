// Package simtime is hyperlint golden-test input: raw integer
// literals in sim.Time/sim.Duration positions.
package simtime

import "hyperion/internal/sim"

// Named constants carry the unit in their name and definition site.
const slotTime sim.Duration = 4000

func flagged(eng *sim.Engine) {
	var deadline sim.Time = 5000 // want `raw literal 5000 has type sim\.Time`
	eng.RunUntil(deadline)
	eng.RunUntil(9000)    // want `raw literal 9000 has type sim\.Time`
	d := sim.Duration(80) // want `raw literal 80 has type sim\.Duration`
	t := eng.Now()
	t = t + 100  // want `raw literal 100 has type sim\.Time`
	if t > 250 { // want `raw literal 250 has type sim\.Time`
		return
	}
	_ = d
}

func allowed(eng *sim.Engine) {
	d := 4 * sim.Nanosecond // scaling a unit
	half := d / 2           // dividing by a count
	var zero sim.Time
	zero = 0 // zero is unit-free
	eng.RunUntil(sim.Time(0))
	eng.RunUntil(eng.Now().Add(slotTime))
	eng.RunUntil(eng.Now().Add(sim.Duration(len("xx")) * sim.Nanosecond))
	_ = half
	_ = zero
}

func suppressed(eng *sim.Engine) {
	//hyperlint:allow(simtime) golden test: a literal picosecond count is the point
	eng.RunUntil(12345)
}
