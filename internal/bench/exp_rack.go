package bench

import (
	"fmt"
	"time"

	"hyperion/internal/rack"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// DefaultRackShards is the shard count behind Rack() — the golden
// universe runs the sharded kernel, not a degenerate single engine.
// The table is shard-count invariant, so the golden hash pins the
// model, not the layout; benchctl -shards and RackSharded exist to
// vary the layout for the speedup measurement.
const DefaultRackShards = 4

// rackBoxSweep sizes the three rows: 8 → 32 simulated DPU boxes,
// 32k → 128k open-loop clients.
var rackBoxSweep = []int{8, 16, 32}

// rackConfig shapes one row's scenario. Relative to the unit-test
// default this is a rack-scale spine (multi-hop propagation, which is
// also the conservative lookahead) under a heavier client population.
func rackConfig(boxes int) rack.Config {
	cfg := rack.DefaultConfig()
	cfg.Boxes = boxes
	cfg.ClientsPerBox = 4000
	cfg.RatePerClient = 300
	cfg.Horizon = 2 * sim.Millisecond
	// Boxes sit several switch hops apart on the spine; the longer
	// propagation delay is honest for a rack and directly sets the
	// conservative window width (lookahead), keeping barriers rare.
	cfg.Net.PropDelay = 2 * sim.Microsecond
	return cfg
}

// Rack (E17) drives one scenario across a rack of simulated DPU boxes
// on the sharded conservative-PDES kernel: every box is an NVMe-oF
// block target plus a replicated KV-SSD, hammered by an open-loop
// client population, with all cross-box traffic carried as
// timestamped spine envelopes. Rows sweep the rack size; the table is
// a pure function of the seed for any shard count.
func Rack(seed uint64) Result { return rackRun(seed, DefaultRackShards, nil) }

// RackSharded is Rack with an explicit shard count — the layout knob
// behind `benchctl -shards` and the shard-count-invariance sweep. The
// Result must be byte-identical to Rack at the same seed.
func RackSharded(seed uint64, shards int) Result { return rackRun(seed, shards, nil) }

// RackTraced is Rack with the telemetry plane armed. Traced runs use
// one shard (a recorder sink is single-threaded state); by shard-count
// invariance the Result still matches Rack at the same seed.
func RackTraced(seed uint64, rec *telemetry.Recorder) Result { return rackRun(seed, 1, rec) }

func rackRun(seed uint64, shards int, rec *telemetry.Recorder) Result {
	r := Result{ID: "E17", Title: "rack-scale scale-out — NVMe-oF + replicated KV across sharded DPU boxes"}
	r.Table.Header = []string{"boxes", "clients", "ops", "reads", "gets", "puts", "ok", "err",
		"p50", "p99", "p99.9", "goodput MB/s"}
	rows := runRows(len(rackBoxSweep), rec,
		func(i int) string { return fmt.Sprintf("e17.rack-%d", rackBoxSweep[i]) },
		func(i int, crec *telemetry.Recorder) tableRow {
			boxes := rackBoxSweep[i]
			cfg := rackConfig(boxes)
			cfg.Shards = shards
			ra := rack.New(cfg, seed, crec)
			ra.Run()
			tot := ra.Totals()
			cl := ra.Cluster()
			elapsed := cl.Now().Sub(sim.Time(0))
			goodput := float64(tot.BytesMoved) / elapsed.Seconds() / 1e6
			// Shard engines are owned by the cluster; its aggregate
			// stands in for engineRow's.
			return tableRow{
				cells: []string{itoa(int64(boxes)), itoa(int64(tot.Clients)), itoa(tot.Issued),
					itoa(tot.Reads), itoa(tot.Gets), itoa(tot.Puts), itoa(tot.OK), itoa(tot.Errs),
					tot.LatAll.Percentile(50).String(), tot.LatAll.Percentile(99).String(),
					tot.LatAll.Percentile(99.9).String(), f2(goodput)},
				now:   cl.Now(),
				steps: cl.Steps(),
			}
		})
	r.addRows(rows)
	r.Notes = append(r.Notes,
		"one scenario partitioned across conservative-PDES shards; the table is byte-identical for every shard count, so scale-out buys wall time, not different physics")
	return r
}

// RackSweepPoint is one shard count's measured cost for the full E17
// sweep. Two throughput figures are reported because they answer
// different questions:
//
//   - EventsPerSec is raw events over wall time — what this host
//     actually delivered. On a host with fewer cores than shards the
//     shards time-share, so this stays flat no matter how well the
//     kernel partitions.
//   - BusyEventsPerSec divides events by the busiest shard's execution
//     time (summed over the rack sizes): the kernel's critical path.
//     It is what wall time converges to once each shard has its own
//     core, and is the honest scaling figure on core-starved hosts.
//
// StallMS (summed across shards) makes barrier cost observable for
// lookahead tuning.
type RackSweepPoint struct {
	Shards           int     `json:"shards"`
	Events           uint64  `json:"events"`
	Windows          uint64  `json:"windows"`
	WallMS           float64 `json:"wall_ms"`
	EventsPerSec     float64 `json:"events_per_sec"`
	MaxShardBusyMS   float64 `json:"max_shard_busy_ms"`
	BusyEventsPerSec float64 `json:"busy_events_per_sec"`
	StallMS          float64 `json:"stall_ms"`
}

// RackSweep reruns the E17 scenario once per shard count and measures
// the kernel's scaling. Every point retires the identical event
// history (shard-count invariance), so the comparison is pure layout.
func RackSweep(seed uint64, shardCounts []int) []RackSweepPoint {
	pts := make([]RackSweepPoint, 0, len(shardCounts))
	for _, shards := range shardCounts {
		p := RackSweepPoint{Shards: shards}
		start := time.Now() //hyperlint:allow(nodeterm) harness-side wall measurement; never feeds model time
		var critNs, stallNs int64
		for _, boxes := range rackBoxSweep {
			cfg := rackConfig(boxes)
			cfg.Shards = shards
			ra := rack.New(cfg, seed, nil)
			ra.Run()
			cl := ra.Cluster()
			p.Events += cl.Steps()
			p.Windows += cl.Windows()
			var maxBusy int64
			for _, st := range cl.Stats() {
				if st.BusyNs > maxBusy {
					maxBusy = st.BusyNs
				}
				stallNs += st.StallNs
			}
			critNs += maxBusy
		}
		wall := time.Since(start) //hyperlint:allow(nodeterm) harness-side wall measurement; never feeds model time
		p.WallMS = float64(wall.Microseconds()) / 1000
		p.EventsPerSec = float64(p.Events) / wall.Seconds()
		p.MaxShardBusyMS = float64(critNs) / 1e6
		p.BusyEventsPerSec = float64(p.Events) / (float64(critNs) / 1e9)
		p.StallMS = float64(stallNs) / 1e6
		pts = append(pts, p)
	}
	return pts
}
