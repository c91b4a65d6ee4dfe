// Command benchctl runs the paper-reproduction experiments and prints
// the regenerated tables and figures.
//
// Usage:
//
//	benchctl list                    # show available experiments
//	benchctl all                     # run everything (EXPERIMENTS.md content)
//	benchctl -trace out/ fig2        # run traced; write Perfetto JSON + summaries
//	benchctl -shards 4 all           # run E17, the cluster-capable experiment, on 4 shards
//	benchctl -shardsweep 1,2,4,8 all # measure E17 scaling across shard counts
//	benchctl table1                  # run one, by name or id (see 'benchctl list')
//
// 'all' fans the experiments out over GOMAXPROCS goroutines, and that
// is deterministic: every row of every experiment owns a private
// sim.Engine, so the fan-out changes wall time only, never the tables.
// Likewise -shards: experiment tables are shard-count invariant, so
// the flag moves wall time and per-shard stats, never a single cell.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"hyperion/internal/bench"
)

func main() {
	tracePath := flag.String("trace", "", "run traced experiments with the telemetry plane armed and write <id>.trace.json/.hist.txt/.critpath.txt to this existing directory")
	shards := flag.Int("shards", 0, "run the cluster-capable experiment (E17) on N sim.Cluster shards; 0 keeps its default")
	sweepSpec := flag.String("shardsweep", "", "with 'all': comma-separated shard counts (e.g. 1,2,4,8); rerun E17 at each and print events/sec scaling")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	var sweep []int
	if *sweepSpec != "" {
		if len(args) != 1 || args[0] != "all" {
			fmt.Fprintln(os.Stderr, "benchctl: -shardsweep runs only with 'all'")
			os.Exit(2)
		}
		sweep = shardCounts(*sweepSpec)
	}
	if *tracePath != "" {
		st, err := os.Stat(*tracePath)
		if err != nil || !st.IsDir() {
			fmt.Fprintf(os.Stderr, "benchctl: -trace %s: not a directory\n", *tracePath)
			os.Exit(1)
		}
	}
	switch args[0] {
	case "list":
		for _, e := range bench.All() {
			fmt.Printf("  %-4s %s\n", e.ID, e.Name)
		}
	case "all":
		for _, o := range bench.RunAll(*shards) {
			fmt.Println(o.Result.String())
		}
		if sweep != nil {
			runShardSweep(sweep)
		}
		if *tracePath != "" {
			for _, e := range bench.All() {
				if e.RunTraced != nil {
					traceOne(e, *tracePath)
				}
			}
		}
	default:
		for _, name := range args {
			e, ok := bench.ByName(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "benchctl: unknown experiment %q (try 'benchctl list')\n", name)
				os.Exit(1)
			}
			if *tracePath != "" && e.RunTraced != nil {
				traceOne(e, *tracePath)
				continue
			}
			if *tracePath != "" {
				fmt.Fprintf(os.Stderr, "benchctl: %s has no traced form; running untraced\n", e.ID)
			}
			fmt.Println(e.RunAt(*shards).String())
		}
	}
}

// shardCounts parses -shardsweep's comma-separated shard counts, or
// exits 2 on a bad one.
func shardCounts(spec string) []int {
	var counts []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "benchctl: -shardsweep %q: bad shard count %q\n", spec, f)
			os.Exit(2)
		}
		counts = append(counts, n)
	}
	return counts
}

// runShardSweep reruns E17 at each shard count and prints the scaling
// table. Two events/sec figures are printed: wall (what this host
// delivered — flat when the host has fewer cores than shards) and busy
// (events over the busiest shard's execution time — the kernel's
// critical path, which wall converges to given one core per shard).
func runShardSweep(counts []int) {
	pts := bench.RackSweep(bench.DefaultSeed, counts)
	fmt.Printf("E17 shard sweep (host: %d CPUs):\n", runtime.NumCPU())
	fmt.Printf("  %6s %9s %8s %9s %12s %8s %12s %8s\n",
		"shards", "events", "wall ms", "stall ms", "wall ev/s", "speedup", "busy ev/s", "speedup")
	for _, p := range pts {
		fmt.Printf("  %6d %9d %8.1f %9.1f %12.0f %7.2fx %12.0f %7.2fx\n",
			p.Shards, p.Events, p.WallMS, p.StallMS,
			p.EventsPerSec, p.EventsPerSec/pts[0].EventsPerSec,
			p.BusyEventsPerSec, p.BusyEventsPerSec/pts[0].BusyEventsPerSec)
	}
}

// traceOne runs one experiment with tracing armed at the default seed,
// prints its (golden-identical) table, and writes the trace artifacts.
func traceOne(e bench.Experiment, dir string) {
	res, rec, _ := bench.RunTracedExperiment(e, bench.DefaultSeed)
	fmt.Println(res.String())
	a, err := bench.WriteTraceArtifacts(dir, e.ID, rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchctl: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("trace artifacts: %s %s %s\n", a.TraceJSON, a.HistTXT, a.CritTXT)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchctl [-shards N] [-shardsweep 1,2,4,8] [-trace dir] list | all | <experiment>...")
}
