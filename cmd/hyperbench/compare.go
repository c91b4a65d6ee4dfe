package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// spec is BENCHMARK.json. -compare needs which way each metric is better
// and how far an end-to-end metric may worsen; the rest is read so that
// a key the file should not have is an error.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// readReports reads a file of -out lines.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var reps []report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		reps = append(reps, r)
	}
	return reps, sc.Err()
}

// side is one file's runs of one (metric, workload): the median of the
// runs' values and the quartile spread around it. A single run brings
// the spread of its own passes.
type side struct {
	values      []float64
	med, q1, q3 float64
}

func sideOf(reps []report, workload, name string) (side, bool) {
	var s side
	var last metric
	for _, r := range reps {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			s.values = append(s.values, m.Value)
			last = m
		}
	}
	if len(s.values) == 0 {
		return s, false
	}
	s.q1, s.med, s.q3 = quartiles(s.values)
	if len(s.values) == 1 && last.N > 1 {
		s.q1, s.q3 = last.Q1, last.Q3
	}
	return s, true
}

func (s side) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.med
}

// verdict judges b against a for one metric. worse is b's relative
// change in the bad direction. With either side's own spread wider
// than the bound the pair is unresolved, unless every run of b reads
// better than every run of a.
func verdict(a, b side, better string, bound float64) (worse float64, v string) {
	if a.med != 0 {
		worse = (b.med - a.med) / a.med
	} else if b.med != 0 {
		worse = 1
	}
	if better == "higher" {
		worse = -worse
	}
	if a.spread() > bound || b.spread() > bound {
		// Fold direction into sign so that smaller is always better.
		sign := 1.0
		if better == "higher" {
			sign = -1
		}
		worstB, bestA := sign*b.values[0], sign*a.values[0]
		for _, x := range b.values {
			worstB = max(worstB, sign*x)
		}
		for _, x := range a.values {
			bestA = min(bestA, sign*x)
		}
		if worstB < bestA {
			return worse, "ok (every run better)"
		}
		return worse, "unresolved"
	}
	if worse > bound {
		return worse, "BREACH"
	}
	return worse, "ok"
}

// compareFiles prints, for every (metric, workload) both files hold,
// b's change against a and, for end-to-end metrics, the verdict against
// the bound. Failed runs and a change in the count of simulated events
// are breaches outright. It returns 1 on any breach.
func compareFiles(specPath, aPath, bPath string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "hyperbench: -compare: %v\n", err)
		return 2
	}
	sp, err := readSpec(specPath)
	if err != nil {
		return fail(err)
	}
	a, err := readReports(aPath)
	if err != nil {
		return fail(err)
	}
	b, err := readReports(bPath)
	if err != nil {
		return fail(err)
	}
	return compareReports(sp, a, b, stdout)
}

func compareReports(sp spec, a, b []report, stdout io.Writer) int {
	breaches, unresolved := 0, 0
	for _, side := range [][]report{a, b} {
		for _, r := range side {
			if r.Failed > 0 {
				fmt.Fprintf(stdout, "BREACH %s seed %d: %d of %d experiment runs failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				breaches++
			}
		}
	}
	fmt.Fprintf(stdout, "%-10s %-28s %14s %8s %14s %8s %9s %7s  %s\n",
		"workload", "metric", "a median", "a iqr", "b median", "b iqr", "b worse", "bound", "verdict")
	row := func(w string, m specMetric, bounded bool) {
		sa, oka := sideOf(a, w, m.Name)
		sb, okb := sideOf(b, w, m.Name)
		if !oka || !okb {
			return
		}
		worse, v := verdict(sa, sb, m.Better, m.Bound)
		bound := fmt.Sprintf("%.1f%%", 100*m.Bound)
		switch {
		case !bounded:
			bound, v = "-", ""
		case v == "BREACH":
			breaches++
		case v == "unresolved":
			unresolved++
		}
		fmt.Fprintf(stdout, "%-10s %-28s %14.6g %7.2f%% %14.6g %7.2f%% %+8.2f%% %7s  %s\n",
			w, m.Name, sa.med, 100*sa.spread(), sb.med, 100*sb.spread(), 100*worse, bound, v)
	}
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			row(w.Name, m, true)
		}
		// The simulated work must not move at all: host time is compared
		// per event, and a speed-up leaves the event count identical.
		events := map[float64]bool{}
		for _, side := range [][]report{a, b} {
			for _, r := range side {
				if r.Workload == w.Name {
					events[r.SimEvents] = true
				}
			}
		}
		if len(events) > 1 {
			fmt.Fprintf(stdout, "BREACH %s sim_events: runs disagree on the simulated event count\n", w.Name)
			breaches++
		}
	}
	for _, w := range sp.Workloads {
		for _, m := range sp.PerLayer {
			row(w.Name, m, false)
		}
	}
	fmt.Fprintf(stdout, "%d breach(es), %d unresolved\n", breaches, unresolved)
	if breaches > 0 {
		return 1
	}
	return 0
}
