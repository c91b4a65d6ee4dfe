// Package checkers registers the hyperlint analyzer suite. It exists
// as its own package so both cmd/hyperlint and tests can enumerate the
// suite without creating an import cycle with the framework.
package checkers

import (
	"fmt"

	"hyperion/internal/analysis"
	"hyperion/internal/analysis/bufown"
	"hyperion/internal/analysis/eventref"
	"hyperion/internal/analysis/maprange"
	"hyperion/internal/analysis/nodeterm"
	"hyperion/internal/analysis/sharedstate"
	"hyperion/internal/analysis/simtime"
	"hyperion/internal/analysis/unsafeptr"
)

// All returns the full hyperlint suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		nodeterm.Analyzer,
		maprange.Analyzer,
		eventref.Analyzer,
		simtime.Analyzer,
		unsafeptr.Analyzer,
		bufown.Analyzer,
		sharedstate.Analyzer,
	}
}

// Select returns the analyzers with the given names in suite order, or
// all of them when names is empty. Unknown names are an error so a
// typo in -checks cannot silently select nothing.
func Select(names []string) ([]*analysis.Analyzer, error) {
	if len(names) == 0 {
		return All(), nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []*analysis.Analyzer
	for _, a := range All() {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 {
		for n := range want {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
	}
	return out, nil
}
