package flow

import (
	"reflect"
	"testing"

	"hyperion/internal/analysis"
)

// TestBuiltinContractsInSync proves the cross-package builtin table
// cannot drift from the source: every entry must match a //wire:
// directive parsed from the real declaration it summarizes. (The table
// exists because a vet unit sees only export data — no doc comments —
// for its dependencies.)
func TestBuiltinContractsInSync(t *testing.T) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader(root)
	pkgs, err := loader.LoadPatterns("./internal/wire", "./internal/netsim")
	if err != nil {
		t.Fatal(err)
	}
	declared := make(map[string]Contract)
	for _, pkg := range pkgs {
		cons := Collect(pkg.Files, pkg.TypesInfo)
		for _, pe := range cons.Errs {
			t.Errorf("%s: malformed directive: %s", pkg.Fset.Position(pe.Pos), pe.Msg)
		}
		for fn, c := range cons.local {
			declared[FuncKey(fn)] = c
		}
	}
	for key, want := range builtins {
		got, ok := declared[key]
		if !ok {
			t.Errorf("builtin contract %s has no //wire: directive on its declaration", key)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("builtin contract %s = %+v, declaration says %+v", key, want, got)
		}
	}
}
