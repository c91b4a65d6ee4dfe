package sim

import "testing"

// Kernel microbenchmarks at two queue depths: 1k (rack-scale experiment
// working set) and 100k (cluster-scale incast). Churn is the headline:
// a balanced schedule/fire/cancel mix that holds queue depth steady, so
// after warmup the free-list pool makes it a zero-allocation loop.
// Before/after numbers vs the seed container/heap kernel are recorded
// in EXPERIMENTS.md.

// benchSchedule measures the pure push path at a steady queue depth:
// each timed chunk schedules `depth` events on top of a `depth`-deep
// queue, then drains the surplus off-timer so slab growth is a one-time
// warmup cost, not the measurement.
func benchSchedule(b *testing.B, depth int) {
	e := NewEngine(1)
	fn := func() {}
	next := int64(0)
	fill := func(n int) {
		for j := 0; j < n; j++ {
			e.At(Time(next)*Time(Nanosecond), "", fn)
			next++
		}
	}
	drain := func(n int) {
		for j := 0; j < n; j++ {
			e.Step()
		}
	}
	fill(2 * depth) // warm slab and pool to steady-state capacity
	drain(depth)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for n < b.N {
		chunk := depth
		if n+chunk > b.N {
			chunk = b.N - n
		}
		fill(chunk)
		n += chunk
		b.StopTimer()
		drain(chunk)
		b.StartTimer()
	}
}

func benchCancel(b *testing.B, depth int) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < depth; i++ {
		e.After(Duration(i)*Nanosecond, "", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.After(Duration(i+depth)*Nanosecond, "", fn)
		e.Cancel(ev)
	}
}

func benchChurn(b *testing.B, depth int) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < depth; i++ {
		e.After(Duration(i)*Nanosecond, "", fn)
	}
	horizon := Duration(depth) * Nanosecond
	churn := func(i int) {
		ev := e.After(horizon, "x", fn)
		if i%2 == 0 {
			e.Cancel(ev)
		} else {
			e.Step()
		}
	}
	// Warm the heap and pool to steady-state capacity so the timed loop
	// measures the recycling path, not slab growth.
	for i := 0; i < 2*depth; i++ {
		churn(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn(i)
	}
}

func BenchmarkEngine_Schedule(b *testing.B) {
	b.Run("depth1k", func(b *testing.B) { benchSchedule(b, 1000) })
	b.Run("depth100k", func(b *testing.B) { benchSchedule(b, 100000) })
}

func BenchmarkEngine_Cancel(b *testing.B) {
	b.Run("depth1k", func(b *testing.B) { benchCancel(b, 1000) })
	b.Run("depth100k", func(b *testing.B) { benchCancel(b, 100000) })
}

func BenchmarkEngine_Churn(b *testing.B) {
	b.Run("depth1k", func(b *testing.B) { benchChurn(b, 1000) })
	b.Run("depth100k", func(b *testing.B) { benchChurn(b, 100000) })
}

// BenchmarkEngine_Ties is E18's shape: about 330 pending events on a
// 100 µs grid, so hundreds of entries share each `at` and only `seq`
// orders them. Each op fires the earliest event, which re-schedules
// itself one period later.
func BenchmarkEngine_Ties(b *testing.B) {
	const pending, period = 330, 100 * Microsecond
	e := NewEngine(1)
	var fn func()
	fn = func() { e.After(period, "", fn) }
	for i := 0; i < pending; i++ {
		e.At(Time(i%3)*Time(period), "", fn)
	}
	for i := 0; i < 4*pending; i++ { // warm the pool and the heap
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// tieTick is one of BenchmarkLane_Ties's ticks: it re-arms one period
// after it fires, on its lane.
type tieTick struct {
	e    *Engine
	lane *Lane[tieTick, *tieTick]
}

func (tk *tieTick) Fire() { tk.lane.At(tk.e, tk.e.Now().Add(100*Microsecond), tk) }

// BenchmarkLane_Ties is BenchmarkEngine_Ties's grid with the ticks on
// one lane, as E18 runs them: 330 ticks on the 100 µs grid plus 110
// heap events off it that re-arm the same way. A tick whose successor
// is due at the same `at` keeps the heap root after one compare round
// instead of sifting a leaf down from the root.
func BenchmarkLane_Ties(b *testing.B) {
	const ticks, offGrid, period = 330, 110, 100 * Microsecond
	e := NewEngine(1)
	var lane Lane[tieTick, *tieTick]
	for phase := 0; phase < 3; phase++ { // the lane takes its pushes in time order
		for i := phase; i < ticks; i += 3 {
			lane.At(e, Time(phase)*Time(period), &tieTick{e: e, lane: &lane})
		}
	}
	var fn func()
	fn = func() { e.After(period, "", fn) }
	for i := 0; i < offGrid; i++ {
		e.At(Time(i%3)*Time(period)+Time(1+i)*Time(Nanosecond), "", fn)
	}
	for i := 0; i < 4*(ticks+offGrid); i++ { // warm the pool, the heap and the ring
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
