// Package simtime_harness is hyperlint golden-test input: unit
// hygiene applies to the harness layer too — experiment definitions
// parameterize models with durations.
package simtime_harness

import "hyperion/internal/sim"

func configure(eng *sim.Engine) {
	eng.RunUntil(eng.Now().Add(sim.Duration(777))) // want `raw literal 777 has type sim\.Duration`
	eng.RunUntil(eng.Now().Add(80 * sim.Picosecond))
}
