package bench

import (
	"runtime"
	"sync"

	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// tableRow is what one independent row hands back: its cells and the
// furthest clock and total events of the simulation behind them.
type tableRow struct {
	cells []string
	now   sim.Time
	steps uint64
}

// engineRow builds a tableRow from the engines the row drove.
func engineRow(cells []string, engines ...*sim.Engine) tableRow {
	t := tableRow{cells: cells}
	for _, e := range engines {
		t.steps += e.Steps()
		t.now = max(t.now, e.Now())
	}
	return t
}

// addRows appends the rows' cells to the table in order and folds
// their clocks and events into the result, as observe does for an
// engine.
func (r *Result) addRows(rows []tableRow) {
	for _, t := range rows {
		r.Table.AddRow(t.cells...)
		r.Steps += t.steps
		r.SimTime = max(r.SimTime, t.now)
	}
}

// runRows runs an experiment's n independent rows concurrently and
// returns their results in row-index order. The caller then adds table
// rows in that order, so the Result is the one a sequential loop would
// build. At most GOMAXPROCS rows run at once: more could only
// time-share the cores while keeping more rows' heaps live.
//
// The row rule: row(i, rrec) builds every engine, device, store, Rand
// and recorder it touches, and writes only its own result. Rows share
// nothing, so host scheduling cannot reach a table; -race and the
// golden hashes check it.
//
// When rec is armed, row i records into its own
// telemetry.NewRecorder(name(i)) — the name it would have passed to
// rec.Child — and after every row finishes the row recorders are
// merged into rec in row order. MergeInto appends processes,
// re-sequences spans and offsets request ids exactly as sequential
// Child calls would have, so traces stay byte-identical. Disarmed, rrec
// is nil and name is never called: both take this one path.
func runRows[T any](n int, rec *telemetry.Recorder, name func(i int) string, row func(i int, rrec *telemetry.Recorder) T) []T {
	recs := make([]*telemetry.Recorder, n)
	if rec != nil {
		for i := range recs {
			recs[i] = telemetry.NewRecorder(name(i))
		}
	}
	out := fanOut(n, runtime.GOMAXPROCS(0), func(i int) T { return row(i, recs[i]) })
	for _, r := range recs {
		r.MergeInto(rec)
	}
	return out
}

// fanOut runs job(0), …, job(n-1) on min(n, max(workers, 1))
// goroutines and returns the results in index order. Workers claim
// indices from the highest down: every converted sweep grows with the
// row index, and E17, the heaviest experiment, is next to last in
// All(). With two or more workers the longest job therefore starts at
// once and alone bounds the wall time.
//
// A job's panic is recovered on its worker, which goes on to the next
// index; once every job has finished, the lowest-index panic value is
// re-raised on the caller's goroutine, where a harness's recover (such
// as hyperbench's per-experiment one) sees it.
func fanOut[T any](n, workers int, job func(i int) T) []T {
	out := make([]T, n)
	panics := make([]any, n)
	idx := make(chan int, n)
	for i := n - 1; i >= 0; i-- {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	for w := min(n, max(workers, 1)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				func() {
					defer func() { panics[i] = recover() }()
					out[i] = job(i)
				}()
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return out
}
