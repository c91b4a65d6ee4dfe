// Package spanpair is hyperlint golden-test input: telemetry span
// pairing against the real hyperion/internal/telemetry API.
package spanpair

import (
	"errors"

	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

var errBad = errors.New("bad")

func balanced(rec *telemetry.Recorder, t0, t1 sim.Time) {
	sp := rec.Begin("stage", "work", 1, t0)
	sp.End(t1)
}

func leakOnBranch(rec *telemetry.Recorder, bad bool, t0, t1 sim.Time) error {
	sp := rec.Begin("stage", "work", 1, t0) // want `span sp begun here is not ended on every path`
	if bad {
		return errBad
	}
	sp.End(t1)
	return nil
}

func endedOnBothArms(rec *telemetry.Recorder, bad bool, t0, t1 sim.Time) error {
	sp := rec.Begin("stage", "work", 1, t0)
	if bad {
		sp.End(t1)
		return errBad
	}
	sp.End(t1)
	return nil
}

func deferredDirect(rec *telemetry.Recorder, bad bool, t0, t1 sim.Time) error {
	sp := rec.Begin("stage", "work", 1, t0)
	defer sp.End(t1)
	if bad {
		return errBad
	}
	return nil
}

func deferredClosure(rec *telemetry.Recorder, bad bool, t0 sim.Time, now func() sim.Time) error {
	sp := rec.Begin("stage", "work", 1, t0)
	defer func() {
		sp.End(now())
	}()
	if bad {
		return errBad
	}
	return nil
}

func doubleEnd(rec *telemetry.Recorder, t0, t1 sim.Time) {
	sp := rec.Begin("stage", "work", 1, t0)
	sp.End(t1)
	sp.End(t1) // want `already ended on every path reaching this End`
}

func chained(rec *telemetry.Recorder, t0, t1 sim.Time) {
	rec.Begin("stage", "work", 1, t0).End(t1)
}

func discarded(rec *telemetry.Recorder, t0 sim.Time) {
	rec.Begin("stage", "work", 1, t0) // want `span begun here is discarded and can never be ended`
}

func moved(rec *telemetry.Recorder, t0, t1 sim.Time) {
	sp := rec.Begin("stage", "work", 1, t0)
	sp2 := sp
	sp2.End(t1)
}

// The span is reachable as sp on one path and as sp2 on the other: one
// finding, and it names the least path on every run.
func moveOnOneArm(rec *telemetry.Recorder, c bool, t0 sim.Time) {
	sp := rec.Begin("stage", "work", 1, t0) // want `span sp begun here is not ended on every path`
	var sp2 telemetry.ActiveSpan
	if c {
		sp2 = sp
	}
	_ = sp2
}

// A blank assignment reads nothing and moves nothing.
func blankIsNotAnEscape(rec *telemetry.Recorder, t0 sim.Time) {
	sp := rec.Begin("stage", "work", 1, t0) // want `span sp begun here is not ended on every path`
	_ = sp
}

type stage struct{}

func (stage) sp() {}

// The closure names a method spelled like the span, not the span.
func closureNamesAMethod(rec *telemetry.Recorder, s stage, bad bool, t0, t1 sim.Time) func() {
	sp := rec.Begin("stage", "work", 1, t0) // want `span sp begun here is not ended on every path`
	if bad {
		sp.End(t1)
	}
	return func() { s.sp() }
}

func escapesToHandler(rec *telemetry.Recorder, t0 sim.Time, hand func(telemetry.ActiveSpan)) {
	sp := rec.Begin("stage", "work", 1, t0)
	hand(sp)
}

func escapesToReturn(rec *telemetry.Recorder, t0 sim.Time) telemetry.ActiveSpan {
	sp := rec.Begin("stage", "work", 1, t0)
	return sp
}

type carrier struct {
	sp telemetry.ActiveSpan
}

func escapesToStore(rec *telemetry.Recorder, t0 sim.Time, c *carrier) {
	sp := rec.Begin("stage", "work", 1, t0)
	c.sp = sp
}

func nilRecorderStillPairs(bad bool, t0, t1 sim.Time) error {
	var rec *telemetry.Recorder
	sp := rec.Begin("stage", "work", 1, t0) // want `span sp begun here is not ended on every path`
	if bad {
		return errBad
	}
	sp.End(t1)
	return nil
}

func suppressedLeak(rec *telemetry.Recorder, bad bool, t0, t1 sim.Time) {
	//hyperlint:allow(spanpair) golden test: span intentionally dropped on the bad path
	sp := rec.Begin("stage", "work", 1, t0)
	if bad {
		return
	}
	sp.End(t1)
}
