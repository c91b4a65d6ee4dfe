package telemetry

import "hyperion/internal/sim"

// ActiveSpan is an open interval: begun, not yet recorded. It pairs
// with exactly one End, which emits the same Event that a direct
// Span(layer, name, req, start, end) call would. Span is the model's
// one span verb; Begin/End stay only for frozen cmd/hyperbench, whose
// probes chain them in one expression. The zero value (and any span
// begun on a nil recorder) is disarmed: End on it is a free no-op.
type ActiveSpan struct {
	rec   *Recorder
	layer string
	name  string
	req   RequestID
	start sim.Time
}

// Begin opens a span at start. Disarmed (nil) recorders return the
// zero ActiveSpan without retaining any of the arguments, keeping the
// disarmed path allocation- and state-free.
func (r *Recorder) Begin(layer, name string, req RequestID, start sim.Time) ActiveSpan {
	if r == nil {
		return ActiveSpan{}
	}
	return ActiveSpan{rec: r, layer: layer, name: name, req: req, start: start}
}

// End closes the span at end, recording it exactly as
// Span(layer, name, req, start, end) would. End of a zero ActiveSpan
// is a no-op.
func (s ActiveSpan) End(end sim.Time) {
	s.rec.Span(s.layer, s.name, s.req, s.start, end)
}
