package bench

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// TestRowsKeepOrderAndPanics pins the row fan-out's contract at every
// worker count: results come back in row-index order whatever order
// the rows finish in, and a panicking row neither stops its siblings
// nor kills the process — the caller re-panics with the row's own
// value. Armed, the merged row recorders match sequential rec.Child.
func TestRowsKeepOrderAndPanics(t *testing.T) {
	const n = 6
	for _, workers := range []int{1, 2, n} {
		t.Run(fmt.Sprintf("reverse finish keeps index order/workers=%d", workers), func(t *testing.T) {
			// Row i waits for row i+1, so rows finish n-1, …, 1, 0.
			done := make([]chan struct{}, n+1)
			for i := range done {
				done[i] = make(chan struct{})
			}
			close(done[n])
			var mu sync.Mutex
			var finished []int
			got := fanOut(n, workers, func(i int) int {
				<-done[i+1]
				mu.Lock()
				finished = append(finished, i)
				mu.Unlock()
				close(done[i])
				return i * i
			})
			for i, v := range got {
				if v != i*i {
					t.Errorf("result %d = %d, want %d", i, v, i*i)
				}
			}
			for k, i := range finished {
				if i != n-1-k {
					t.Fatalf("rows finished in order %v, want reverse index order", finished)
				}
			}
		})

		t.Run(fmt.Sprintf("a row's panic reaches the caller/workers=%d", workers), func(t *testing.T) {
			boom := errors.New("row 2 failed")
			finished := make([]bool, n)
			var got any
			func() {
				defer func() { got = recover() }()
				fanOut(n, workers, func(i int) int {
					if i == 2 {
						panic(boom)
					}
					finished[i] = true
					return i
				})
			}()
			if got != boom {
				t.Fatalf("caller recovered %v, want the row's own value %v", got, boom)
			}
			// Rows are claimed from the top down, so rows 1 and 0 are
			// claimed after row 2 panicked.
			for i, ok := range finished {
				if i != 2 && !ok {
					t.Errorf("row %d did not run after row 2 panicked", i)
				}
			}
		})
	}

	t.Run("armed rows merge like sequential Child", func(t *testing.T) {
		row := func(i int, rec *telemetry.Recorder) int {
			req := rec.NewRequest()
			rec.Span("row", "work", req, sim.Time(i), sim.Time(10*i+5))
			rec.Count("row", "n", int64(i))
			return i
		}
		rec := telemetry.NewRecorder("exp")
		runRows(n, rec, func(i int) string { return fmt.Sprintf("row%d", i) }, row)
		ref := telemetry.NewRecorder("exp")
		for i := 0; i < n; i++ {
			row(i, ref.Child(fmt.Sprintf("row%d", i)))
		}
		if got, want := string(rec.ChromeTrace()), string(ref.ChromeTrace()); got != want {
			t.Errorf("fanned-out trace differs from sequential Child trace:\n--- rows ---\n%s\n--- child ---\n%s", got, want)
		}
		if got, want := rec.HistogramDump(), ref.HistogramDump(); got != want {
			t.Errorf("fanned-out histogram dump differs:\n--- rows ---\n%s\n--- child ---\n%s", got, want)
		}
	})
}
