// Package main is TestFaultGateRules' program: the hooked layer and the
// experiment that arms it, one statement per rule of the fault-hook
// gate.
package main

import (
	"hyperion/internal/fault"
	"hyperion/internal/sim"
)

// layer consults its plan at every injection point.
type layer struct{ plan *fault.Plan }

func (l *layer) serve(k fault.Kind) {
	// Armed through a Set chain.
	l.plan.Roll(fault.Drop)
	// Armed through a local variable.
	l.plan.Windows(fault.Crash, sim.Time(sim.Second), sim.Millisecond, sim.Millisecond)
	// Armed only at rate 0: no arming.
	l.plan.Roll(fault.Timeout)
	l.plan.Roll(k)
}

func experiment(rate float64) *layer {
	l := &layer{plan: fault.NewPlan(1, "faultdemo").Set(fault.Drop, rate).Set(fault.Timeout, 0)}
	plan := fault.NewPlan(1, "faultdemo")
	if rate > 0 {
		plan.Set(fault.Crash, 1)
	}
	l.serve(fault.Drop)
	(&layer{plan: plan}).serve(fault.Crash)
	// No hook reads these.
	fault.NewPlanIndexed(1, "faultdemo", 2).Set(fault.Evict, rate)
	fault.NewPlan(1, "other").Set(fault.Drop, 1)
	return l
}

func rearm(p *fault.Plan) {
	p.Set(fault.Reorder, 1)
}

func main() {
	rearm(experiment(0.5).plan)
}
