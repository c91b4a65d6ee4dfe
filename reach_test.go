package hyperion

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"hyperion/internal/analysis"
	"hyperion/internal/fault"
)

// loadTree type-checks the non-test tree once for every gate in this
// file.
var loadTree = sync.OnceValues(func() ([]*analysis.Package, error) {
	return analysis.NewLoader(".").LoadPatterns("./...")
})

// reachAllow names the non-test functions no binary reaches that stay
// anyway, each with its reason: the test that drives other reachable
// code through it, the ROADMAP item that decides it, or the frozen
// benchmark harness. A key is a function — package path without the
// module prefix, then the receiver's type name without pointer or type
// parameters, then the name ("internal/nvme.Device.StoredBlocks") — or a
// whole package ("internal/storage/txn"). Listed functions are roots, so
// their callees need no line. An entry that names nothing, or whose
// functions are reachable without it, fails TestEveryFunctionIsReachable.
var reachAllow = map[string]string{
	"cmd/hyperbench.barDev.MMIORead": "cmd/hyperbench is frozen: its probe device still implements the method pcie.Device no longer has",

	"internal/analysis/analysistest":    "test helper: every analyzer's golden test runs through analysistest.Run",
	"internal/analysis/flow.Builtins":   "TestBuiltinContractsInSync checks the cross-package contract table the analyzers use through it",
	"internal/analysis/flow.Graph.Dump": "TestCFGDump and TestCFGDeterministic pin CFG construction through it",

	"internal/apps/fail2ban.CompileFilter": "TestFrontendShapeMatchesHandAssembly and FuzzOptimizeEquivalence drive gofront and ehdl.Optimize with it",

	"internal/bench.ClusterScaleOutWindowed": "TestShardCountInvariance drives E17's windowed scale-out with it",
	"internal/bench.Experiment.Run":          "TestExperimentsDeterministic and the BenchmarkTable benchmarks run experiments through it",
	"internal/bench.TenantScenarioRelabeled": "TestTenantRelabelingInvariance drives E18 with it",

	"internal/core.Reboot": "ROADMAP power-cut item: the reopen path its harness drives (TestCrashRecoveryEndToEnd today)",

	"internal/ebpf.ALU64Reg":        "TestVerifierSoundness's program generator builds register operands with it",
	"internal/ebpf.Decode":          "FuzzDecodeVerifyLoad feeds Verify, Load and Run through it",
	"internal/ebpf.Encode":          "FuzzDecodeVerifyLoad and FuzzOptimizeEquivalence build their seed corpora with it",
	"internal/ebpf.HashMap.Iterate": "TestFrontendBehaviorMatchesHandAssembly and FuzzOptimizeEquivalence compare map state through it",
	"internal/ebpf.JumpImm":         "TestVerifierSoundness's program generator builds guards with it",
	"internal/ebpf.JumpReg":         "TestVerifierSoundness's program generator builds register-register guards with it",

	"internal/fault.Plan.Count": "TestRollDeterministicAndCounted counts Roll's injections through it",

	"internal/nvme.Device.StoredBlocks": "TestBlockTableEnds and TestCheckpointRefusesOversizedTable observe the block table through it",
	"internal/nvmeof.Initiator.Flush":   "ROADMAP power-cut item: flushes are safety code (TestFlush)",

	"internal/seg.Store.Recover":       "ROADMAP power-cut item: the reopen path its harness drives (FuzzRecover today)",
	"internal/seg.Store.Stat":          "TestCheckpointRecover and TestCrashRecoveryEndToEnd observe the segment table through it",
	"internal/seg.SyncView.Store":      "TestImageWriteMatchesEncodeOracle and TestUnlinkFreesSpace observe the store under a view through it",
	"internal/seg.allocator.free":      "TestAllocatorProperty and TestCheckpointRecover observe free space through it",
	"internal/sim.CounterSet.Value":    "TestPartialFaultRateStillCompletesEventually and TestDeadlineTimeoutReachesEveryVerb read model counters through it",
	"internal/sim.Engine.Pending":      "TestCheckpointRecoverScheduleNothing and TestLaneOrderMatchesHeap observe the event queue through it",
	"internal/sim.LatencyRecorder.Min": "TestPlacementAndSubmit and TestLatencyRecorderPercentiles observe recorded latencies through it",

	"internal/storage/bptree.Tree.Scan":        "ROADMAP power-cut item: a contract operation its harness drives",
	"internal/storage/corfu.Log.Fill":          "ROADMAP power-cut item: a contract operation its harness drives",
	"internal/storage/corfu.Log.Read":          "ROADMAP power-cut item: a contract operation its harness drives",
	"internal/storage/corfu.Log.Trim":          "ROADMAP power-cut item: a contract operation its harness drives",
	"internal/storage/corfu.OpenUnit":          "ROADMAP power-cut item: the reopen path its harness drives",
	"internal/storage/corfu.Sequencer.Recover": "ROADMAP power-cut item: the reopen path its harness drives",
	"internal/storage/hfs.FS.ReadDir":          "ROADMAP power-cut item: a contract operation its harness drives",
	"internal/storage/hfs.FS.ReadFile":         "ROADMAP power-cut item: a contract operation its harness drives",
	"internal/storage/hfs.FS.Unlink":           "ROADMAP power-cut item: a contract operation its harness drives",
	"internal/storage/hfs.Mount":               "ROADMAP power-cut item: the reopen path its harness drives",
	"internal/storage/kvssd.Open":              "ROADMAP power-cut item: the reopen path its harness drives",
	"internal/storage/lsm.Tree.Scan":           "ROADMAP power-cut item: a contract operation its harness drives",
	"internal/storage/txn":                     "ROADMAP power-cut item: its harness decides whether txn gains a caller or is deleted",

	"internal/telemetry.Recorder.Events": "TestTracedMetamorphicDeterminism and TestE2TraceSchemaAndTableNeutrality check that armed runs record through it",
	"internal/telemetry.Recorder.Hist":   "TestWFQRoundSkipMatchesReference and TestReconfigUnderLoadArmedEqualsDisarmed compare recorded span histograms through it",

	"internal/transport.homaEndpoint.Stats":     "TestUDPLosesUnderCongestionAndCountsIt and the transport tests read counters through Endpoint.Stats",
	"internal/transport.reliableEndpoint.Stats": "TestUDPLosesUnderCongestionAndCountsIt and the transport tests read counters through Endpoint.Stats",
	"internal/transport.udpEndpoint.Stats":      "TestUDPLosesUnderCongestionAndCountsIt reads counters through Endpoint.Stats",
}

// reachImplicit are method names the runtime and standard library call
// through interfaces the repo never calls itself (fmt, errors, sort,
// container/heap, encoding/json): a method with one of these names
// counts as reached.
var reachImplicit = []string{"String", "Error", "Format", "Len", "Less", "Swap", "Push", "Pop", "MarshalJSON"}

// TestEveryFunctionIsReachable fails on every non-test function that no
// binary can call: static reachability over the type-checked non-test
// tree, rooted at main in every package under cmd/ and examples/, every
// init, every package-level var initialiser and every reachAllow entry.
// A call through an interface method reaches every method of that name.
// It replaces a per-package orphan check: an orphan package has every
// function unreached.
func TestEveryFunctionIsReachable(t *testing.T) {
	pkgs, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	binary := func(path string) bool {
		return strings.HasPrefix(path, "hyperion/cmd/") || strings.HasPrefix(path, "hyperion/examples/")
	}
	g := newReachGraph(pkgs, "hyperion/", binary)
	dead, stale := g.check(reachAllow)
	for _, d := range dead {
		t.Errorf("%s: %s is reached by no binary: delete it, or give it a reachAllow line with its reason", g.pos[d], d)
	}
	for _, s := range stale {
		t.Errorf("reachAllow: %s", s)
	}
}

// TestReachabilityRules pins each rule of the gate on a small program.
func TestReachabilityRules(t *testing.T) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.NewLoader(root).LoadDir(filepath.Join("testdata", "reach"), "reachdemo")
	if err != nil {
		t.Fatal(err)
	}
	g := newReachGraph([]*analysis.Package{pkg}, "", func(string) bool { return true })
	dead, stale := g.check(map[string]string{
		"reachdemo.allowed": "a root by its entry",
		"reachdemo.live":    "stale: main calls it",
		"reachdemo.gone":    "stale: no such function",
	})
	// Reached and therefore absent: square.area (called through shape),
	// circle.area (same name, never built), celsius.String (implicit),
	// build (a var initialiser), register (init), counter.inc (a method
	// value), allowed (listed).
	if want := []string{"reachdemo.counter.reset", "reachdemo.dead"}; strings.Join(dead, " ") != strings.Join(want, " ") {
		t.Errorf("unreached = %q, want %q", dead, want)
	}
	if len(stale) != 2 || !strings.HasPrefix(stale[0], "reachdemo.gone ") || !strings.HasPrefix(stale[1], "reachdemo.live ") {
		t.Errorf("stale entries = %q, want reachdemo.gone and reachdemo.live", stale)
	}
}

// TestDocsCiteLiveNames keeps the docs' citations alive: every
// backticked Test*, Fuzz* or Benchmark* name in them must be a prefix
// of a function the tests define (docs cite patterns such as
// `BenchmarkTable1_*`), and every backticked internal/, cmd/ or
// examples/ path must exist. A fenced code block counts as one span.
// A doc with an odd number of backticks fails: the pairing is lost.
// Every test a reachAllow reason names must be live by the same rule.
func TestDocsCiteLiveNames(t *testing.T) {
	var defined []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				defined = append(defined, fd.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	testName := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	live := func(name string) bool {
		return slices.ContainsFunc(defined, func(d string) bool { return strings.HasPrefix(d, name) })
	}
	for entry, reason := range reachAllow {
		for _, name := range testName.FindAllString(reason, -1) {
			if !live(name) {
				t.Errorf("reachAllow %s cites %s, which no test defines", entry, name)
			}
		}
	}
	fence := regexp.MustCompile("(?m)^[ \t]*```.*$")
	span := regexp.MustCompile("`[^`]+`")
	repoPath := regexp.MustCompile(`\b(?:internal|cmd|examples)/[\w./*-]*`)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// A fence line, indented or not, becomes one backtick.
		body := fence.ReplaceAllString(string(text), "`")
		if strings.Count(body, "`")%2 != 0 {
			t.Errorf("%s has an unpaired backtick", doc)
		}
		for _, s := range span.FindAllString(body, -1) {
			for _, name := range testName.FindAllString(s, -1) {
				if !live(name) {
					t.Errorf("%s cites %s, which no test defines", doc, name)
				}
			}
			for _, p := range repoPath.FindAllString(s, -1) {
				p = strings.TrimRight(strings.TrimSuffix(p, "..."), "./")
				pkg, _, _ := strings.Cut(p, ".") // `internal/analysis.Classify` cites a member
				if m, _ := filepath.Glob(p); len(m) == 0 && !isDir(pkg) {
					t.Errorf("%s cites %s, which does not exist", doc, p)
				}
			}
		}
	}
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// relPosition shortens a position inside the working directory to a
// relative path, so findings print as clickable file:line.
func relPosition(posn token.Position) token.Position {
	wd, _ := os.Getwd()
	if rel, err := filepath.Rel(wd, posn.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		posn.Filename = rel
	}
	return posn
}

// reachGraph is the reference graph of a loaded tree. Node "" stands
// for the roots that are not functions: init bodies and package-level
// var initialisers.
type reachGraph struct {
	module string                    // import-path prefix keys drop
	pos    map[string]token.Position // every function declaration but init
	pkg    map[string]string         // function -> its package's key
	calls  map[string][]string       // function -> functions it references
	dyn    map[string][]string       // function -> methods it calls through an interface
	byName map[string][]string       // method name -> methods of that name
	roots  []string                  // main in every binary package
}

func newReachGraph(pkgs []*analysis.Package, module string, binary func(path string) bool) *reachGraph {
	g := &reachGraph{
		module: module,
		pos:    make(map[string]token.Position),
		pkg:    make(map[string]string),
		calls:  make(map[string][]string),
		dyn:    make(map[string][]string),
		byName: make(map[string][]string),
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						g.refs("", p.TypesInfo, d)
						continue
					}
					fn := p.TypesInfo.Defs[d.Name].(*types.Func)
					k := g.key(fn)
					g.pos[k] = relPosition(p.Fset.Position(d.Pos()))
					g.pkg[k] = strings.TrimPrefix(p.Path, module)
					if d.Recv != nil {
						g.byName[fn.Name()] = append(g.byName[fn.Name()], k)
					} else if fn.Name() == "main" && p.Types.Name() == "main" && binary(p.Path) {
						g.roots = append(g.roots, k)
					}
					g.refs(k, p.TypesInfo, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok && d.Tok == token.VAR {
							for _, v := range vs.Values {
								g.refs("", p.TypesInfo, v)
							}
						}
					}
				}
			}
		}
	}
	return g
}

// refs records every function n refers to. The selected name of every
// selector expression is in Uses, so method calls, method values and
// method expressions all land here.
func (g *reachGraph) refs(from string, info *types.Info, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		fn = fn.Origin()
		if r := fn.Type().(*types.Signature).Recv(); r != nil && types.IsInterface(r.Type()) {
			g.dyn[from] = append(g.dyn[from], fn.Name())
		} else if fn.Pkg() != nil {
			g.calls[from] = append(g.calls[from], g.key(fn))
		}
		return true
	})
}

func (g *reachGraph) key(fn *types.Func) string {
	name := fn.Name()
	if r := fn.Type().(*types.Signature).Recv(); r != nil {
		t := r.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	return strings.TrimPrefix(fn.Pkg().Path(), g.module) + "." + name
}

// reach returns every function reachable from the roots and seeds.
func (g *reachGraph) reach(seeds []string) map[string]bool {
	seen := make(map[string]bool)
	names := make(map[string]bool)
	work := append(append([]string{""}, g.roots...), seeds...)
	called := func(name string) {
		if !names[name] {
			names[name] = true
			work = append(work, g.byName[name]...)
		}
	}
	for _, name := range reachImplicit {
		called(name)
	}
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[k] {
			continue
		}
		seen[k] = true
		work = append(work, g.calls[k]...)
		for _, name := range g.dyn[k] {
			called(name)
		}
	}
	return seen
}

// covers lists the functions an allowlist entry names: the function
// itself, or every function of the package.
func (g *reachGraph) covers(entry string) []string {
	if _, ok := g.pos[entry]; ok {
		return []string{entry}
	}
	var fs []string
	for k, p := range g.pkg {
		if p == entry {
			fs = append(fs, k)
		}
	}
	sort.Strings(fs)
	return fs
}

// check returns the functions reached neither from a root nor from an
// allow entry, and the entries that name nothing or are not needed.
func (g *reachGraph) check(allow map[string]string) (dead, stale []string) {
	entries := make([]string, 0, len(allow))
	for e := range allow {
		entries = append(entries, e)
	}
	sort.Strings(entries)
	seedsBut := func(skip string) []string {
		var seeds []string
		for _, e := range entries {
			if e != skip {
				seeds = append(seeds, g.covers(e)...)
			}
		}
		return seeds
	}
	reached := g.reach(seedsBut(""))
	for k := range g.pos {
		if !reached[k] {
			dead = append(dead, k)
		}
	}
	sort.Strings(dead)
	for _, e := range entries {
		fs := g.covers(e)
		if len(fs) == 0 {
			stale = append(stale, e+" names no function or package")
			continue
		}
		without := g.reach(seedsBut(e))
		for _, f := range fs {
			if without[f] {
				stale = append(stale, f+" is reachable without entry "+e)
				break
			}
		}
	}
	return dead, stale
}

// TestEveryFaultHookIsArmed fails on a fault hook no experiment arms,
// on an arming no hook reads, and on a hook or arming it cannot
// resolve. A hook is a call to (*fault.Plan).Roll or Windows outside
// internal/fault, keyed by its package's last path element and its
// constant Kind. An arming is a (*fault.Plan).Set call in internal/bench
// whose rate is not the constant 0, keyed by the constant layer of the
// NewPlan or NewPlanIndexed call its plan comes from: the root of the
// receiver's Set chain, or the := initialiser of a local variable. A
// plan built in model code arms nothing: no experiment turns it on.
func TestEveryFaultHookIsArmed(t *testing.T) {
	pkgs, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range faultGate(pkgs, func(path string) bool { return path == "hyperion/internal/bench" }) {
		t.Error(f)
	}
}

// TestFaultGateRules pins each rule of the fault-hook gate on a small
// program that is both the hooked layer and its experiment.
func TestFaultGateRules(t *testing.T) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.NewLoader(root).LoadDir(filepath.Join("testdata", "faulthooks"), "faultdemo")
	if err != nil {
		t.Fatal(err)
	}
	got := faultGate([]*analysis.Package{pkg}, func(string) bool { return true })
	want := []string{
		`testdata/faulthooks/main.go:20:2: faultdemo hook Roll(timeout) is armed by no experiment: arm it in internal/bench or delete it`,
		`testdata/faulthooks/main.go:21:2: faultdemo hook Roll has no constant kind`,
		`testdata/faulthooks/main.go:33:2: arming of "faultdemo" evict has no hook`,
		`testdata/faulthooks/main.go:34:2: arming of "other" drop has no hook`,
		`testdata/faulthooks/main.go:39:2: Set's plan comes from no NewPlan or NewPlanIndexed call with a constant layer`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// faultGate returns the findings of the fault-hook gate over pkgs,
// sorted, each at file:line; arms says which packages' Set calls are
// armings.
func faultGate(pkgs []*analysis.Package, arms func(path string) bool) []string {
	type site struct {
		pos  token.Position
		desc string
	}
	hooks := make(map[string][]site) // "layer kind" -> hook calls
	armed := make(map[string][]site) // "layer kind" -> armings
	var findings []string
	for _, p := range pkgs {
		if p.Path == faultPath {
			continue
		}
		// A := precedes every use of its variable, so one walk in source
		// order has each initialiser before the Set calls that need it.
		inits := make(map[*types.Var]ast.Expr)
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.DEFINE && len(as.Lhs) == len(as.Rhs) {
					for i, l := range as.Lhs {
						if v, ok := p.TypesInfo.Defs[l.(*ast.Ident)].(*types.Var); ok {
							inits[v] = as.Rhs[i]
						}
					}
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := faultCallee(p.TypesInfo, call)
				pos := relPosition(p.Fset.Position(call.Pos()))
				switch {
				case name == "Roll" || name == "Windows":
					layer := path.Base(p.Path)
					kind, ok := faultKind(p.TypesInfo, call.Args[0])
					if !ok {
						findings = append(findings, fmt.Sprintf("%s: %s hook %s has no constant kind", pos, layer, name))
						break
					}
					k := layer + " " + kind
					hooks[k] = append(hooks[k], site{pos, fmt.Sprintf("%s hook %s(%s)", layer, name, kind)})
				case name == "Set" && arms(p.Path):
					if rate := p.TypesInfo.Types[call.Args[1]].Value; rate != nil && constant.Sign(rate) == 0 {
						break
					}
					kind, ok := faultKind(p.TypesInfo, call.Args[0])
					if !ok {
						findings = append(findings, fmt.Sprintf("%s: Set has no constant kind", pos))
						break
					}
					layer, ok := planLayer(p.TypesInfo, inits, call.Fun.(*ast.SelectorExpr).X)
					if !ok {
						findings = append(findings, fmt.Sprintf("%s: Set's plan comes from no NewPlan or NewPlanIndexed call with a constant layer", pos))
						break
					}
					k := layer + " " + kind
					armed[k] = append(armed[k], site{pos, fmt.Sprintf("arming of %q %s", layer, kind)})
				}
				return true
			})
		}
	}
	for k, sites := range hooks {
		if armed[k] == nil {
			for _, s := range sites {
				findings = append(findings, fmt.Sprintf("%s: %s is armed by no experiment: arm it in internal/bench or delete it", s.pos, s.desc))
			}
		}
	}
	for k, sites := range armed {
		if hooks[k] == nil {
			for _, s := range sites {
				findings = append(findings, fmt.Sprintf("%s: %s has no hook", s.pos, s.desc))
			}
		}
	}
	slices.Sort(findings)
	return findings
}

const faultPath = "hyperion/internal/fault"

// faultCallee names the function or *fault.Plan method call calls when
// it is one of package fault's, and returns "" otherwise.
func faultCallee(info *types.Info, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fn.Sel
	case *ast.Ident:
		id = fn
	}
	if fn, ok := info.Uses[id].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == faultPath {
		return fn.Name()
	}
	return ""
}

// faultKind names the constant fault.Kind e evaluates to.
func faultKind(info *types.Info, e ast.Expr) (string, bool) {
	v := info.Types[e].Value
	if v == nil {
		return "", false
	}
	n, ok := constant.Int64Val(v)
	return fault.Kind(n).String(), ok
}

// planLayer follows a plan expression back through Set chains and local
// variables' initialisers to the NewPlan or NewPlanIndexed call that
// made it, and returns that call's constant layer.
func planLayer(info *types.Info, inits map[*types.Var]ast.Expr, e ast.Expr) (string, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			switch faultCallee(info, x) {
			case "Set":
				e = x.Fun.(*ast.SelectorExpr).X
				continue
			case "NewPlan", "NewPlanIndexed":
				if v := info.Types[x.Args[1]].Value; v != nil && v.Kind() == constant.String {
					return constant.StringVal(v), true
				}
			}
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok && inits[v] != nil {
				e = inits[v]
				continue
			}
		}
		return "", false
	}
}
