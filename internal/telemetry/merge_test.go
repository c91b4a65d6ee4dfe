package telemetry

import (
	"fmt"
	"testing"

	"hyperion/internal/sim"
)

// recordBox emits one box's deterministic telemetry stream: tagged
// spans across two layers, an untagged span, a bare observation and a
// counter. The stream depends only on idx, so any recorder that plays
// boxes in index order produces the same logical history.
func recordBox(r *Recorder, idx int) {
	base := sim.Time(int64(idx+1) * int64(10*sim.Microsecond))
	for op := 0; op < 3; op++ {
		req := r.NewRequest()
		t0 := base.Add(sim.Duration(op) * sim.Microsecond)
		mid := t0.Add(300 * sim.Nanosecond)
		end := t0.Add(sim.Duration(idx+op+1) * sim.Microsecond)
		r.Span("net", "frame", req, t0, mid)
		r.Span("nvme", "read", req, mid, end)
	}
	r.Span("net", "bg", 0, base, base.Add(50*sim.Nanosecond))
	r.Observe("kv", "put", sim.Duration(idx+1)*sim.Microsecond)
	r.Count("kv", "ops", int64(idx+1))
}

// TestMergeIntoShardCountInvariance pins the satellite contract for
// per-shard telemetry: four box streams recorded on one recorder must
// export byte-identically to the same streams recorded on two
// per-shard recorders merged in shard order — traces, histogram dumps,
// and critical-path summaries all included.
func TestMergeIntoShardCountInvariance(t *testing.T) {
	// 1-shard reference: one sink, boxes as children in box order.
	ref := NewRecorder("rack")
	for i := 0; i < 4; i++ {
		recordBox(ref.Child(fmt.Sprintf("box%d", i)), i)
	}

	// 2-shard layout: boxes {0,1} on shard 0, {2,3} on shard 1. Each
	// shard's root process is its first box, so after merging in shard
	// order the pid space matches the reference exactly.
	s0 := NewRecorder("box0")
	recordBox(s0, 0)
	recordBox(s0.Child("box1"), 1)
	s1 := NewRecorder("box2")
	recordBox(s1, 2)
	recordBox(s1.Child("box3"), 3)

	dst := NewRecorder("rack")
	s0.MergeInto(dst)
	s1.MergeInto(dst)

	if got, want := string(dst.ChromeTrace()), string(ref.ChromeTrace()); got != want {
		t.Errorf("merged trace differs from 1-shard trace:\n--- merged ---\n%s\n--- 1-shard ---\n%s", got, want)
	}
	if got, want := dst.HistogramDump(), ref.HistogramDump(); got != want {
		t.Errorf("merged histogram dump differs:\n--- merged ---\n%s\n--- 1-shard ---\n%s", got, want)
	}
	if got, want := dst.CriticalPath(), ref.CriticalPath(); got != want {
		t.Errorf("merged critical path differs:\n--- merged ---\n%s\n--- 1-shard ---\n%s", got, want)
	}
	if err := ValidateChromeTrace(dst.ChromeTrace()); err != nil {
		t.Errorf("merged trace fails validation: %v", err)
	}
	// Request ids must stay distinct across the merge: the next id in
	// the merged sink continues past both shards' allocations.
	if got, want := dst.NewRequest(), ref.NewRequest(); got != want {
		t.Errorf("merged next request id = %d, want %d", got, want)
	}
}

// tapeOp is one recorder call on a seeded tape. proc picks which of
// the row's processes (its root, or a Child it opened earlier) the call
// lands on; req picks which of the row's issued requests a span
// carries (-1: untagged).
type tapeOp struct {
	kind  int // 0 Span, 1 Observe, 2 Count, 3 NewRequest, 4 Child
	proc  int
	req   int
	layer string
	name  string
	at    sim.Time
	d     sim.Duration
}

// makeTape draws a row's ops from rnd: every recorder verb, request
// ids threaded through later spans, and nested Child processes.
func makeTape(rnd *sim.Rand, n int) []tapeOp {
	layers := []string{"net", "nvme", "rpc", "kv"}
	names := []string{"frame", "read", "call", "put"}
	procs, reqs := 1, 0
	tape := make([]tapeOp, n)
	for i := range tape {
		op := tapeOp{
			kind:  rnd.Intn(5),
			proc:  rnd.Intn(procs),
			req:   -1,
			layer: layers[rnd.Intn(len(layers))],
			name:  names[rnd.Intn(len(names))],
			at:    sim.Time(rnd.Intn(1000)) * sim.Time(sim.Microsecond),
			d:     sim.Duration(rnd.Intn(50_000)) * sim.Nanosecond,
		}
		switch op.kind {
		case 0:
			if reqs > 0 && rnd.Intn(4) != 0 {
				op.req = rnd.Intn(reqs)
			}
		case 3:
			reqs++
		case 4:
			procs++
		}
		tape[i] = op
	}
	return tape
}

// playTape records tape on root, opening nested processes (named
// after the row) as the tape asks.
func playTape(root *Recorder, row int, tape []tapeOp) {
	procs := []*Recorder{root}
	var reqs []RequestID
	for i, op := range tape {
		r := procs[op.proc]
		switch op.kind {
		case 0:
			var req RequestID
			if op.req >= 0 {
				req = reqs[op.req]
			}
			r.Span(op.layer, op.name, req, op.at, op.at.Add(op.d))
		case 1:
			r.Observe(op.layer, op.name, op.d)
		case 2:
			r.Count(op.layer, op.name, int64(op.d))
		case 3:
			reqs = append(reqs, r.NewRequest())
		case 4:
			procs = append(procs, r.Child(fmt.Sprintf("row%d.sub%d", row, i)))
		}
	}
}

// TestMergeInOrderMatchesChild pins the equivalence the bench row
// fan-out relies on: rows recorded through rec.Child one after another
// on one recorder export byte-identically to the same rows recorded on
// one NewRecorder each and merged into the caller's recorder in row
// order — traces, histogram dumps and critical paths all included.
func TestMergeInOrderMatchesChild(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rnd := sim.NewRand(seed)
		prefix := makeTape(rnd, 10)
		rows := make([][]tapeOp, 1+rnd.Intn(5))
		for i := range rows {
			rows[i] = makeTape(rnd, 5+rnd.Intn(60))
		}

		ref := NewRecorder("exp")
		playTape(ref, -1, prefix)
		for i, tape := range rows {
			playTape(ref.Child(fmt.Sprintf("row%d", i)), i, tape)
		}

		merged := NewRecorder("exp")
		playTape(merged, -1, prefix)
		recs := make([]*Recorder, len(rows))
		for i, tape := range rows {
			recs[i] = NewRecorder(fmt.Sprintf("row%d", i))
			playTape(recs[i], i, tape)
		}
		for _, r := range recs {
			r.MergeInto(merged)
		}

		if got, want := string(merged.ChromeTrace()), string(ref.ChromeTrace()); got != want {
			t.Fatalf("seed %d: merged trace differs from Child trace:\n--- merged ---\n%s\n--- child ---\n%s", seed, got, want)
		}
		if got, want := merged.HistogramDump(), ref.HistogramDump(); got != want {
			t.Fatalf("seed %d: merged histogram dump differs:\n--- merged ---\n%s\n--- child ---\n%s", seed, got, want)
		}
		if got, want := merged.CriticalPath(), ref.CriticalPath(); got != want {
			t.Fatalf("seed %d: merged critical path differs:\n--- merged ---\n%s\n--- child ---\n%s", seed, got, want)
		}
		if got, want := merged.NewRequest(), ref.NewRequest(); got != want {
			t.Fatalf("seed %d: merged next request id = %d, want %d", seed, got, want)
		}
	}
}

func TestMergeIntoNilSafety(t *testing.T) {
	var nilRec *Recorder
	dst := NewRecorder("d")
	nilRec.MergeInto(dst) // must not panic
	src := NewRecorder("s")
	recordBox(src, 0)
	src.MergeInto(nil) // must not panic
	if dst.Events() != 0 {
		t.Errorf("nil merges moved %d events", dst.Events())
	}
}

func TestMergeIntoSelfPanics(t *testing.T) {
	rec := NewRecorder("r")
	child := rec.Child("c")
	defer func() {
		if recover() == nil {
			t.Error("merging recorders sharing a sink did not panic")
		}
	}()
	child.MergeInto(rec)
}
