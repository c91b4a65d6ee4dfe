package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"hyperion/internal/bench"
)

// workload is one fixed set of experiments run back to back as a pass.
// The sets partition bench.All(); each exists because it exercises the
// layers a different way (see README.md).
type workload struct {
	name string
	ids  []string
	// colds is how many fresh processes are timed for setup_s. The
	// heavy workload gets fewer so a run stays inside the time budget;
	// datapath, whose cold pass is 0.17 s, gets more because so short a
	// process is the one the host's drift moves most.
	colds int
}

var workloads = []workload{
	{name: "tenants", ids: []string{"E18"}, colds: 3},
	{name: "rack", ids: []string{"E17"}, colds: 5},
	{name: "datapath", ids: []string{"E1", "E2", "E3", "E4", "E5", "E7", "E8", "E10", "E14", "X1", "E16"}, colds: 15},
	{name: "storage", ids: []string{"E6", "E9", "E11", "E12", "E13"}, colds: 5},
}

// minPasses is the floor on timed passes: below nine the quartiles of a
// run are two samples apart.
const minPasses = 9

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// resolve maps the workload's ids to experiments through the public
// registry.
func (w workload) resolve() ([]bench.Experiment, error) {
	exps := make([]bench.Experiment, 0, len(w.ids))
	for _, id := range w.ids {
		e, ok := bench.ByName(id)
		if !ok {
			return nil, fmt.Errorf("workload %s: experiment %q is not registered", w.name, id)
		}
		exps = append(exps, e)
	}
	return exps, nil
}

// unassigned lists registered experiments no workload names. A later
// change may add an experiment without being allowed to edit this
// directory, so this is reported, never failed.
func unassigned() []string {
	named := map[string]bool{}
	for _, w := range workloads {
		for _, id := range w.ids {
			named[id] = true
		}
	}
	var out []string
	for _, e := range bench.All() {
		if !named[e.ID] {
			out = append(out, e.ID)
		}
	}
	return out
}

//go:embed golden.json
var goldenJSON []byte

// golden holds the table SHA-256 of every experiment in the seed-1
// universe. It is a variable so the liveness test can swap one entry.
var golden = mustGolden()

func mustGolden() map[string]string {
	g := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("hyperbench: embedded golden.json: " + err.Error())
	}
	return g
}

// now is the one wall-clock read of the program.
func now() time.Time {
	return time.Now() //hyperlint:allow(nodeterm) host time is what this benchmark reports; it never feeds model time
}

// cpuTime returns user+system CPU of the whole process, GC workers
// included, and the peak resident set in MB.
func cpuTime() (cpu time.Duration, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil { //hyperlint:allow(nodeterm) host CPU accounting is measurement output only
		return 0, 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// op is one experiment run inside one pass: the unit failures are
// counted in.
type op struct {
	id    string
	steps uint64
	fail  string // non-empty: why this run counts as failed
}

// pass is the measurement of one pass over a workload.
type pass struct {
	wall      time.Duration
	cpu       time.Duration
	allocs    uint64
	bytes     uint64
	events    uint64
	gcCycles  uint32
	gcPauseNs uint64
	ops       []op
}

// runOne executes one experiment in the golden universe at one shard,
// turning a panic into a failed op.
func runOne(e bench.Experiment) (res bench.Result, fail string) {
	defer func() {
		if r := recover(); r != nil {
			fail = fmt.Sprintf("panic: %v", r)
		}
	}()
	// More shards than one would measure the host scheduler: E17 at two
	// shards is slower than at one on a two-core host.
	if e.RunSharded != nil {
		return e.RunSharded(bench.DefaultSeed, 1), ""
	}
	return e.RunSeeded(bench.DefaultSeed), ""
}

// runPass runs exps once in the given order: a permutation drawn from
// the run's seed. The simulated universe stays the golden one
// (README.md, "What --seed varies"), so the seed moves which experiment
// inherits which heap and cache state, not the amount of simulated
// work. The heap is collected first and tables are rendered and hashed
// afterwards, both outside the timed region. sp, when non-nil, records one host span per experiment
// under a pass span.
func runPass(exps []bench.Experiment, order []int, sp *spans, label string) pass {
	results := make([]bench.Result, len(order))
	p := pass{ops: make([]op, len(order))}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, _ := cpuTime()
	parent := sp.begin(label, 0)
	t0 := now()
	for i, k := range order {
		e := exps[k]
		id := sp.begin(e.ID, parent)
		results[i], p.ops[i].fail = runOne(e)
		sp.end(id)
		p.ops[i].id = e.ID
	}
	p.wall = now().Sub(t0)
	sp.end(parent)
	cpu1, _ := cpuTime()
	runtime.ReadMemStats(&m1)
	p.cpu = cpu1 - cpu0
	p.allocs = m1.Mallocs - m0.Mallocs
	p.bytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	for i := range p.ops {
		o := &p.ops[i]
		o.steps = results[i].Steps
		p.events += o.steps
		if o.fail == "" {
			o.fail = check(o.id, results[i])
		}
	}
	return p
}

// check compares one result with the golden universe, hashing the
// table the way every BENCH_*.json row and CI hash gate does.
func check(id string, res bench.Result) string {
	rec := bench.RunOutcome{Result: res}.ToRecord()
	if rec.Rows == 0 {
		return "table has zero rows"
	}
	want, ok := golden[id]
	if !ok {
		return "no golden hash"
	}
	if rec.TableSHA256 != want {
		return fmt.Sprintf("table sha256 %s, golden %s", rec.TableSHA256, want)
	}
	return ""
}
