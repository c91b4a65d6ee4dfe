package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"hyperion/internal/bench"
	"hyperion/internal/telemetry"
)

// This file reads the counters the simulator already exports: the
// sharded kernel's window and stall accounting, and the telemetry
// plane's virtual-time spans.

// rackCounters reruns E17 at one and two shards through the public
// sweep and reports the kernel's cluster-mode counters.
func rackCounters(out map[string]float64) {
	pts := bench.RackSweep(bench.DefaultSeed, []int{1, 2})
	one, two := pts[0], pts[1]
	out["sim.windows"] = float64(one.Windows)
	// Stall is summed over both shards, so its share is of two walls.
	out["sim.stall_share"] = two.StallMS / (2 * two.WallMS)
	out["sim.shard2_speedup"] = one.WallMS / two.WallMS
	out["sim.busy_events_per_s"] = two.BusyEventsPerSec
}

// catLayer maps the telemetry plane's span categories to layer names.
var catLayer = map[string]string{
	"net":        "netsim",
	"rpc.client": "rpc",
	"rpc.server": "rpc",
	"nvme.host":  "nvme",
	"nvme.dev":   "nvme",
	"cluster":    "cluster",
	"app":        "apps",
	"tenant":     "tenant",
	"wfq":        "fabric",
}

// spanLayers are the layers whose virtual-time spans are reported.
var spanLayers = []string{"netsim", "rpc", "nvme", "cluster", "apps", "tenant", "fabric"}

// telemetryCounters runs each experiment in scope that has an armed
// form (E2, E7, E16, E17, E18 today) disarmed and then armed on a fresh
// recorder, and folds the exported trace by
// category: span counts and busy virtual microseconds per layer (both
// exact: they repeat on every run), the armed/disarmed wall ratio, and
// the heap held while the recorders are live.
func telemetryCounters(scope map[string]bool, sp *spans, out map[string]float64) error {
	id := sp.begin("telemetry", 0)
	defer sp.end(id)
	for _, l := range spanLayers {
		out[l+".spans"] = 0
		out[l+".sim_busy_us"] = 0
	}
	out["telemetry.spans"] = 0
	out["telemetry.overhead_ratio"] = 0
	out["telemetry.heap_mb"] = 0
	var armed, disarmed float64
	var busyPs = map[string]int64{}
	for _, e := range bench.All() {
		if e.RunTraced == nil || !scope[e.ID] {
			continue
		}
		eid := e.ID
		runtime.GC()
		disarmed += timed(func() { runOne(e) }).Seconds() // one shard, as every traced run is
		rec := telemetry.NewRecorder(eid)
		runtime.GC()
		var res bench.Result
		armed += timed(func() { res = e.RunTraced(bench.DefaultSeed, rec) }).Seconds()
		if fail := check(eid, res); fail != "" {
			return fmt.Errorf("armed %s: %s", eid, fail)
		}
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if mb := float64(m.HeapAlloc) / 1e6; mb > out["telemetry.heap_mb"] {
			out["telemetry.heap_mb"] = mb
		}
		var tr struct {
			TraceEvents []struct {
				Cat string      `json:"cat"`
				Ph  string      `json:"ph"`
				Dur json.Number `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(rec.ChromeTrace(), &tr); err != nil {
			return fmt.Errorf("armed %s: trace: %w", eid, err)
		}
		for _, ev := range tr.TraceEvents {
			if ev.Ph != "X" {
				continue
			}
			out["telemetry.spans"]++
			l, ok := catLayer[ev.Cat]
			if !ok {
				continue
			}
			ps, err := microsToPs(string(ev.Dur))
			if err != nil {
				return fmt.Errorf("armed %s: %w", eid, err)
			}
			out[l+".spans"]++
			busyPs[l] += ps
		}
	}
	for l, ps := range busyPs {
		out[l+".sim_busy_us"] = float64(ps) / 1e6
	}
	if disarmed > 0 {
		out["telemetry.overhead_ratio"] = armed / disarmed
	}
	return nil
}

// microsToPs converts the exporter's fixed-point microseconds
// ("12.345678") to integer picoseconds, so sums stay exact.
func microsToPs(s string) (int64, error) {
	whole, frac, _ := strings.Cut(s, ".")
	if len(frac) > 6 {
		return 0, fmt.Errorf("duration %q has sub-picosecond digits", s)
	}
	ps, err := strconv.ParseInt(whole+frac+strings.Repeat("0", 6-len(frac)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("duration %q: %w", s, err)
	}
	return ps, nil
}
