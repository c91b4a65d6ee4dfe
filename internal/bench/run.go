package bench

import (
	"crypto/sha256"
	"fmt"
	"runtime"
)

// RunOutcome couples an experiment with the Result of one run of it.
type RunOutcome struct {
	Exp    Experiment
	Result Result
}

// RunAll executes every experiment and returns outcomes in All()
// order. Experiments fan out over GOMAXPROCS goroutines, nested over
// each experiment's own row fan-out (runRows); each row drives its own
// private sim.Engine, so the Results are identical to a sequential run
// — only wall time changes. shards is the cluster shard count applied
// to every experiment that has a sharded form (shards <= 0 keeps each
// experiment's default); tables are shard-count invariant, so it too
// moves only wall time.
func RunAll(shards int) []RunOutcome {
	exps := All()
	return fanOut(len(exps), runtime.GOMAXPROCS(0), func(i int) RunOutcome {
		return RunOutcome{Exp: exps[i], Result: exps[i].RunAt(shards)}
	})
}

// Record is the machine-readable form of one outcome; TableSHA256 is
// the hash every golden gate pins. Headline is the experiment's first
// note — the sentence each experiment uses to state its key finding.
type Record struct {
	ID            string `json:"id"`
	Name          string `json:"name"`
	Title         string `json:"title"`
	Headline      string `json:"headline,omitempty"`
	VirtualTime   string `json:"virtual_time"`
	VirtualTimePs int64  `json:"virtual_time_ps"`
	Events        uint64 `json:"events"`
	Rows          int    `json:"rows"`
	TableSHA256   string `json:"table_sha256"`
}

// ToRecord converts an outcome to its Record.
func (o RunOutcome) ToRecord() Record {
	rec := Record{
		ID:            o.Result.ID,
		Name:          o.Exp.Name,
		Title:         o.Result.Title,
		VirtualTime:   o.Result.SimTime.String(),
		VirtualTimePs: int64(o.Result.SimTime),
		Events:        o.Result.Steps,
		Rows:          len(o.Result.Table.Rows),
		TableSHA256:   fmt.Sprintf("%x", sha256.Sum256([]byte(o.Result.Table.String()))),
	}
	if len(o.Result.Notes) > 0 {
		rec.Headline = o.Result.Notes[0]
	}
	return rec
}
