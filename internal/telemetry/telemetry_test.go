package telemetry

import (
	"bytes"
	"testing"

	"hyperion/internal/sim"
)

// TestNilRecorderNoOps pins the disarmed contract: every method on a
// nil recorder is a safe no-op returning zero values.
func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	if c := r.Child("x"); c != nil {
		t.Fatalf("Child of nil = %v, want nil", c)
	}
	if id := r.NewRequest(); id != 0 {
		t.Fatalf("NewRequest on nil = %d, want 0", id)
	}
	r.Span("l", "n", 1, 0, sim.Time(int64(10*sim.Nanosecond)))
	r.Observe("l", "n", 5*sim.Nanosecond)
	r.Count("l", "n", 3)
	if n := r.Events(); n != 0 {
		t.Fatalf("Events on nil = %d, want 0", n)
	}
	if b := r.ChromeTrace(); b != nil {
		t.Fatalf("ChromeTrace on nil = %q, want nil", b)
	}
	if s := r.HistogramDump(); s != "" {
		t.Fatalf("HistogramDump on nil = %q, want empty", s)
	}
	if s := r.CriticalPath(); s != "" {
		t.Fatalf("CriticalPath on nil = %q, want empty", s)
	}
}

// TestDisarmedZeroAlloc pins the zero-cost half of the contract: the
// nil-recorder paths allocate nothing, so permanently-installed hooks
// are free when disarmed.
func TestDisarmedZeroAlloc(t *testing.T) {
	var r *Recorder
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		_ = r.NewRequest()
		r.Span("l", "n", 0, 0, 0)
		r.Observe("l", "n", 0)
		r.Count("l", "n", 1)
		_ = r.Child("x")
		_ = r.Events()
		h.Observe(0)
		h.Merge(nil)
	})
	if allocs != 0 {
		t.Fatalf("disarmed hooks allocate %.1f per run, want 0", allocs)
	}
}

// record drives one fixed sequence of telemetry onto rec.
func record(rec *Recorder) {
	child := rec.Child("scenario-a")
	for i := 0; i < 5; i++ {
		req := rec.NewRequest()
		base := sim.Time(int64(i) * int64(10*sim.Microsecond))
		rec.Span("net", "frame", req, base, base.Add(2*sim.Microsecond))
		rec.Span("nvme", "read", req, base.Add(2*sim.Microsecond), base.Add(9*sim.Microsecond))
		child.Span("app", "op", req, base, base.Add(9*sim.Microsecond))
		rec.Count("net", "frames", 1)
		child.Observe("app", "queue", sim.Duration(int64(i)*int64(sim.Nanosecond)))
	}
}

// TestRecorderDeterminism: identical call sequences yield byte-identical
// exports — the property the traced metamorphic sweep rests on.
func TestRecorderDeterminism(t *testing.T) {
	a, b := NewRecorder("root"), NewRecorder("root")
	record(a)
	record(b)
	if !bytes.Equal(a.ChromeTrace(), b.ChromeTrace()) {
		t.Error("ChromeTrace not byte-identical across identical runs")
	}
	if a.HistogramDump() != b.HistogramDump() {
		t.Error("HistogramDump not byte-identical across identical runs")
	}
	if a.CriticalPath() != b.CriticalPath() {
		t.Error("CriticalPath not byte-identical across identical runs")
	}
	if a.Events() != 15 {
		t.Errorf("Events = %d, want 15", a.Events())
	}
}

// TestNewRequestSequence: request ids are 1-based and global across
// children, so a request keeps its identity across process rows.
func TestNewRequestSequence(t *testing.T) {
	rec := NewRecorder("root")
	child := rec.Child("c")
	if got := rec.NewRequest(); got != 1 {
		t.Fatalf("first id = %d, want 1", got)
	}
	if got := child.NewRequest(); got != 2 {
		t.Fatalf("child id = %d, want 2 (shared sequence)", got)
	}
	if got := rec.NewRequest(); got != 3 {
		t.Fatalf("third id = %d, want 3", got)
	}
}

// TestChromeTraceSchema: the exporter's own output must satisfy the
// validator, contain the process/thread metadata, and keep sim
// timestamps monotone.
func TestChromeTraceSchema(t *testing.T) {
	rec := NewRecorder("root")
	record(rec)
	data := rec.ChromeTrace()
	if err := ValidateChromeTrace(data); err != nil {
		t.Fatalf("exporter output fails validation: %v\n%s", err, data)
	}
	for _, want := range []string{
		`"process_name"`, `"thread_name"`, `"root"`, `"scenario-a"`,
		`"ph":"X"`, `"cat":"net"`, `"cat":"app"`,
	} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("trace missing %s", want)
		}
	}
}

// TestCriticalPathPicksDominantStage: the stage with the largest
// aggregate duration wins, and e2e spans the request's full extent.
func TestCriticalPathPicksDominantStage(t *testing.T) {
	rec := NewRecorder("p")
	req := rec.NewRequest()
	rec.Span("net", "frame", req, 0, sim.Time(int64(1*sim.Microsecond)))
	rec.Span("nvme", "read", req,
		sim.Time(int64(1*sim.Microsecond)), sim.Time(int64(8*sim.Microsecond)))
	rec.Span("net", "frame", req,
		sim.Time(int64(8*sim.Microsecond)), sim.Time(int64(9*sim.Microsecond)))
	out := rec.CriticalPath()
	if !bytes.Contains([]byte(out), []byte("nvme:read")) {
		t.Fatalf("critical path does not name the dominant stage:\n%s", out)
	}
	// e2e = 9 µs = 9_000_000 ps; dominant stage 7_000_000 ps (77%).
	for _, want := range []string{"9000000", "7000000", "77"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("critical path missing %s:\n%s", want, out)
		}
	}
	// Untagged spans must not create request rows.
	rec.Span("net", "bg", 0, 0, sim.Time(int64(50*sim.Microsecond)))
	if got := rec.CriticalPath(); got != out {
		t.Error("untagged (req=0) span changed the critical-path summary")
	}
}
