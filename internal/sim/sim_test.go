package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, "c", func() { got = append(got, 3) })
	e.At(10, "a", func() { got = append(got, 1) })
	e.At(20, "b", func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, "tie", func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-time events ran out of order: pos %d got %d", i, got[i])
		}
	}
}

func TestEngineSchedulingPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(100, "x", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, "past", func() {})
	})
	e.Run()
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(10, "x", func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double-cancel, cancel-after-run, and zero-ref cancel must not panic.
	e.Cancel(ev)
	e.Cancel(NoEvent)
	e.Cancel(EventRef{})
}

func TestEngineCancelDuringRun(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(20, "victim", func() { fired = true })
	e.At(10, "canceller", func() { e.Cancel(ev) })
	e.Run()
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	e.At(10, "x", func() {})
	e.At(1000, "y", func() {})
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("Now = %v, want 500", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if e.Now() != 1000 {
		t.Fatalf("Now = %v, want 1000", e.Now())
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var trace []Time
	e.After(5, "outer", func() {
		trace = append(trace, e.Now())
		e.After(7, "inner", func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	if len(trace) != 2 || trace[0] != 5 || trace[1] != 12 {
		t.Fatalf("trace = %v, want [5 12]", trace)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := true
	a2 := NewRand(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandIntnUniformish(t *testing.T) {
	r := NewRand(9)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		if c < trials/n*8/10 || c > trials/n*12/10 {
			t.Fatalf("bucket %d count %d far from uniform %d", i, c, trials/n)
		}
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		n := 1 + int(seed%64)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(11)
	z := NewZipf(r, 1000, 0.99)
	counts := make(map[uint64]int)
	const trials = 200000
	for i := 0; i < trials; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate: YCSB-style zipf 0.99 gives rank 0 several
	// percent of mass over 1000 items.
	if counts[0] < trials/50 {
		t.Fatalf("rank-0 mass too small: %d/%d", counts[0], trials)
	}
	if counts[0] <= counts[500] {
		t.Fatal("zipf not skewed: rank 0 not more common than rank 500")
	}
}

func TestExpMean(t *testing.T) {
	r := NewRand(13)
	var sum Duration
	const n = 100000
	mean := 100 * Microsecond
	for i := 0; i < n; i++ {
		sum += r.Exp(mean)
	}
	got := sum / n
	if got < mean*9/10 || got > mean*11/10 {
		t.Fatalf("Exp mean = %v, want ≈ %v", got, mean)
	}
}

func TestLatencyRecorderPercentiles(t *testing.T) {
	var l LatencyRecorder
	for i := 1; i <= 100; i++ {
		l.Record(Duration(i))
	}
	if got := l.Percentile(50); got != 50 {
		t.Fatalf("p50 = %v, want 50", got)
	}
	if got := l.Percentile(99); got != 99 {
		t.Fatalf("p99 = %v, want 99", got)
	}
	if got := l.Min(); got != 1 {
		t.Fatalf("min = %v, want 1", got)
	}
	if got := l.Max(); got != 100 {
		t.Fatalf("max = %v, want 100", got)
	}
	if got := l.Mean(); got != 50 { // (1+..+100)/100 = 50.5 truncated
		t.Fatalf("mean = %v, want 50", got)
	}
}

func TestLatencyRecorderRecordAfterSort(t *testing.T) {
	var l LatencyRecorder
	l.Record(10)
	_ = l.Percentile(50) // forces sort
	l.Record(1)
	if got := l.Min(); got != 1 {
		t.Fatalf("min after late record = %v, want 1", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"name", "value"}}
	tb.AddRow("x", "1")
	tb.AddRow("longer", "22")
	out := tb.String()
	if out == "" {
		t.Fatal("empty render")
	}
	// Columns must align: every line has the same prefix width for col 1.
	if len(out) < 10 {
		t.Fatalf("implausible table: %q", out)
	}
}

func TestDurationFormatting(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ps"},
		{2 * Nanosecond, "2.000ns"},
		{3 * Microsecond, "3.000us"},
		{4 * Millisecond, "4.000ms"},
		{5 * Second, "5.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Duration(i%100), "bench", func() {})
		if i%1024 == 0 {
			e.Run()
		}
	}
	e.Run()
}
