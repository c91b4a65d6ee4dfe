package sim

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// LatencyRecorder accumulates latency samples and reports percentiles.
// It keeps raw samples; experiment scales here are small enough (≤ a few
// million samples) that exactness beats sketching.
type LatencyRecorder struct {
	samples []Duration
	sorted  bool
	sum     Duration
}

// Record adds one sample.
func (l *LatencyRecorder) Record(d Duration) {
	l.samples = append(l.samples, d)
	l.sum += d
	l.sorted = false
}

// Count returns the number of samples.
func (l *LatencyRecorder) Count() int { return len(l.samples) }

// Mean returns the mean sample, or 0 with no samples.
func (l *LatencyRecorder) Mean() Duration {
	if len(l.samples) == 0 {
		return 0
	}
	return l.sum / Duration(len(l.samples))
}

// Min returns the smallest sample, or 0 with no samples.
func (l *LatencyRecorder) Min() Duration {
	l.ensureSorted()
	if len(l.samples) == 0 {
		return 0
	}
	return l.samples[0]
}

// Max returns the largest sample, or 0 with no samples.
func (l *LatencyRecorder) Max() Duration {
	l.ensureSorted()
	if len(l.samples) == 0 {
		return 0
	}
	return l.samples[len(l.samples)-1]
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank on the sorted samples.
func (l *LatencyRecorder) Percentile(p float64) Duration {
	l.ensureSorted()
	n := len(l.samples)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return l.samples[rank-1]
}

// Merge absorbs o's samples into l. Because percentiles are computed
// over the sorted union, the result is independent of merge order —
// per-shard recorders merged in any order report identical tables.
func (l *LatencyRecorder) Merge(o *LatencyRecorder) {
	if o == nil || len(o.samples) == 0 {
		return
	}
	l.Grow(len(o.samples))
	l.samples = append(l.samples, o.samples...)
	l.sum += o.sum
	l.sorted = false
}

// Grow makes room for n more samples, so that many Records or Merges
// add no allocation.
func (l *LatencyRecorder) Grow(n int) { l.samples = slices.Grow(l.samples, n) }

func (l *LatencyRecorder) ensureSorted() {
	if l.sorted {
		return
	}
	slices.Sort(l.samples)
	l.sorted = true
}

// Summary formats count/mean/p50/p99/p999/max on one line.
func (l *LatencyRecorder) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v p99.9=%v max=%v",
		l.Count(), l.Mean(), l.Percentile(50), l.Percentile(99), l.Percentile(99.9), l.Max())
}

// Table is a minimal fixed-width text table used by the benchmark
// harness to print paper-style rows.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
