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
	"strconv"
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
	"internal/analysis/flow.Graph.Dump": "TestCFGDump and TestCFGDeterministic pin CFG construction through it",

	"internal/apps/fail2ban.CompileFilter": "TestFrontendShapeMatchesHandAssembly and FuzzOptimizeEquivalence drive gofront and ehdl.Optimize with it",

	"internal/bench.Experiment.Run": "TestExperimentsDeterministic and the BenchmarkTable benchmarks run experiments through it",

	"internal/core.Reboot": "ROADMAP power-cut item: the reopen path its harness drives (TestCrashRecoveryEndToEnd today)",

	"internal/ebpf.ALU64Reg":        "TestVerifierSoundness's program generator builds register operands with it",
	"internal/ebpf.Decode":          "FuzzDecodeVerifyLoad feeds Verify, Load and Run through it",
	"internal/ebpf.Encode":          "FuzzDecodeVerifyLoad and FuzzOptimizeEquivalence build their seed corpora with it",
	"internal/ebpf.HashMap.Iterate": "TestFrontendBehaviorMatchesHandAssembly and FuzzOptimizeEquivalence compare map state through it",
	"internal/ebpf.HashMap.Len":     "TestInstanceMapsMatchDeclarations and TestInstancesShareNoBans observe instance maps through it",
	"internal/ebpf.MapSet.Len":      "TestInstanceMapsMatchDeclarations and TestInstancesShareNoBans observe instance maps through it",
	"internal/ebpf.JumpImm":         "TestVerifierSoundness's program generator builds guards with it",
	"internal/ebpf.JumpReg":         "TestVerifierSoundness's program generator builds register-register guards with it",

	"internal/fault.Plan.Count": "TestRollDeterministicAndCounted counts Roll's injections through it",

	"internal/nvme.Device.StoredBlocks": "TestBlockTableEnds and TestCheckpointRefusesOversizedTable observe the block table through it",
	"internal/nvmeof.Initiator.Flush":   "ROADMAP power-cut item: flushes are safety code (TestFlush)",

	"internal/seg.Store.Recover":       "ROADMAP power-cut item: the reopen path its harness drives (FuzzRecover today)",
	"internal/seg.Store.Stat":          "TestCheckpointRecover and TestCrashRecoveryEndToEnd observe the segment table through it",
	"internal/seg.SyncView.Store":      "TestImageWriteMatchesEncodeOracle and TestUnlinkFreesSpace observe the store under a view through it",
	"internal/seg.allocator.free":      "TestAllocatorProperty and TestCheckpointRecover observe free space through it",
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

	"internal/transport.endpoint.Stats": "TestUDPLosesUnderCongestionAndCountsIt and the transport tests read counters through Endpoint.Stats",
}

// reachImplicit are the standard interfaces the runtime and standard
// library call through on the repo's behalf, though the repo never calls
// them itself: fmt's String, Format and Error, sort's and container/heap's
// Len, Less, Swap, Push and Pop, encoding/json's MarshalJSON. Every method
// of a type that implements one counts as reached.
var reachImplicit = map[string]methodSet{
	"fmt.Stringer":             {"String": "() string"},
	"fmt.Formatter":            {"Format": "(fmt.State, rune)"},
	"error":                    {"Error": "() string"},
	"sort.Interface":           {"Len": "() int", "Less": "(int, int) bool", "Swap": "(int, int)"},
	"container/heap.Interface": {"Len": "() int", "Less": "(int, int) bool", "Swap": "(int, int)", "Push": "(any)", "Pop": "() any"},
	"encoding/json.Marshaler":  {"MarshalJSON": "() ([]byte, error)"},
}

// TestEveryFunctionIsReachable fails on every non-test function that no
// binary can call: static reachability over the type-checked non-test
// tree, rooted at main in every package under cmd/ and examples/, every
// init, every package-level var initialiser and every reachAllow entry.
// A call through an interface method reaches that method of every type
// whose pointer's method set matches the interface's, by name and by
// signature; through a constraint with type terms, such as
// interface{ *T; Fire() }, it reaches every method of that name.
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
	// circle.area (a shape, never built), box.get (box[int] is a getter),
	// ticker.fire (through a constraint with a type term), celsius's
	// String, Format, MarshalJSON and Error and ints's heap.Interface
	// methods (implicit), build (a var initialiser), register (init),
	// counter.inc (a method value), allowed (listed). disc.area and
	// bag.Len share a called name but not the interface.
	want := []string{"reachdemo.bag.Len", "reachdemo.counter.reset", "reachdemo.dead", "reachdemo.disc.area"}
	if strings.Join(dead, " ") != strings.Join(want, " ") {
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
// Every test a reachAllow or knobAllow reason names must be live by
// the same rule.
func TestDocsCiteLiveNames(t *testing.T) {
	var defined []string
	for _, path := range goFiles(t, true) {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				defined = append(defined, fd.Name.Name)
			}
		}
	}
	testName := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	live := func(name string) bool {
		return slices.ContainsFunc(defined, func(d string) bool { return strings.HasPrefix(d, name) })
	}
	for _, allow := range []struct {
		name    string
		entries map[string]string
	}{{"reachAllow", reachAllow}, {"knobAllow", knobAllow}} {
		for entry, reason := range allow.entries {
			for _, name := range testName.FindAllString(reason, -1) {
				if !live(name) {
					t.Errorf("%s %s cites %s, which no test defines", allow.name, entry, name)
				}
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

// designBudget and changesEntryBudget are the byte budgets TestDocBudget
// holds: DESIGN.md says what is true now, once, and a CHANGES.md entry is
// one paragraph; history lives in git.
const (
	designBudget       = 40000
	changesEntryBudget = 1536
)

// TestDocBudget fails when DESIGN.md outgrows its budget or a CHANGES.md
// entry outgrows its own.
func TestDocBudget(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	changes, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range docBudget(string(design), string(changes)) {
		t.Error(f)
	}
}

// docBudget returns the budget findings for the text of DESIGN.md and
// CHANGES.md.
func docBudget(design, changes string) []string {
	var findings []string
	if len(design) > designBudget {
		findings = append(findings, fmt.Sprintf("DESIGN.md is %d bytes, over its %d: say what is true now, once", len(design), designBudget))
	}
	for _, e := range changesEntries(changes) {
		if len(e) > changesEntryBudget {
			first, _, _ := strings.Cut(e, "\n")
			findings = append(findings, fmt.Sprintf("CHANGES.md entry %.40q… is %d bytes, over its %d: one paragraph, names only", first, len(e), changesEntryBudget))
		}
	}
	return findings
}

// changesEntries splits CHANGES.md into its entries: a top-level list
// item ("- " at column 0) with its continuation lines, up to the next
// item or heading.
func changesEntries(text string) []string {
	var entries []string
	cur := -1
	for _, line := range strings.SplitAfter(text, "\n") {
		switch {
		case strings.HasPrefix(line, "- "):
			entries = append(entries, line)
			cur = len(entries) - 1
		case strings.HasPrefix(line, "#"):
			cur = -1
		case cur >= 0:
			entries[cur] += line
		}
	}
	for i, e := range entries {
		entries[i] = strings.TrimRight(e, "\n")
	}
	return entries
}

// designCite matches a citation of DESIGN by section, "DESIGN §4" or
// "DESIGN.md §12", with an optional quoted heading title after it.
var designCite = regexp.MustCompile(`DESIGN(?:\.md)? §(\d+)(?: "([^"]+)")?`)

// roadmapCite matches a citation of a ROADMAP item by number, "ROADMAP
// item 6", or by one or two words of its title, "ROADMAP power-cut item"
// or "ROADMAP's power-cut item". "The ROADMAP item that decides it"
// names no item and is no citation.
var roadmapCite = regexp.MustCompile(`ROADMAP(?:\.md|'s)? (?:item (\d+)\b|([\w-]+(?: [\w-]+)?) item\b)`)

// citable is what a citation may name: DESIGN.md's sections, each with
// the titles it answers to, and ROADMAP.md's items by number, each with
// its title.
type citable struct {
	sections map[string][]string
	items    map[string]string
}

// TestDocCitationsResolve keeps citations of DESIGN.md and ROADMAP.md
// live. The non-test Go, ci.yml, the docs TestDocsCiteLiveNames checks
// and the reasons of reachAllow and knobAllow are read. A DESIGN §N
// must name a "## N." heading of DESIGN.md, and a quoted title after it
// must name that heading or one of its subheadings, in full or up to
// the heading's first ": ". A ROADMAP item N must name a "### N."
// heading of ROADMAP.md, and a ROADMAP <name> item one whose title
// contains the name.
func TestDocCitationsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	c := citable{designSections(string(design)), roadmapItems(string(roadmap))}
	designCited, roadmapCited := 0, 0
	check := func(name, text string) {
		designCited += len(designCite.FindAllString(joinLines(text), -1))
		roadmapCited += len(roadmapCite.FindAllString(joinLines(text), -1))
		for _, bad := range badCitations(c, name, text) {
			t.Error(bad)
		}
	}
	files := append([]string{".github/workflows/ci.yml", "DESIGN.md", "README.md", "EXPERIMENTS.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md"}, goFiles(t, false)...)
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		check(f, string(text))
	}
	for _, allow := range []struct {
		name    string
		entries map[string]string
	}{{"reachAllow", reachAllow}, {"knobAllow", knobAllow}} {
		for key, reason := range allow.entries {
			check(fmt.Sprintf("%s[%q]", allow.name, key), reason)
		}
	}
	if designCited == 0 || roadmapCited == 0 {
		t.Errorf("%d DESIGN and %d ROADMAP citations found: the gate reads nothing", designCited, roadmapCited)
	}
}

// designSections maps the number of each "## N. Title" heading of
// DESIGN.md to the titles it answers to: its own and those of the
// "###" headings under it, each also by its part before a ": ".
func designSections(text string) map[string][]string {
	sections := make(map[string][]string)
	cur := ""
	add := func(title string) {
		short, _, _ := strings.Cut(title, ": ")
		sections[cur] = append(sections[cur], title, short)
	}
	for _, line := range strings.Split(text, "\n") {
		if h, ok := strings.CutPrefix(line, "## "); ok {
			num, title, found := strings.Cut(h, ". ")
			cur = ""
			if found {
				cur = num
				add(title)
			}
		} else if h, ok := strings.CutPrefix(line, "### "); ok && cur != "" {
			add(h)
		}
	}
	return sections
}

// roadmapItems maps the number of each "### N. Title" heading of
// ROADMAP.md to its title.
func roadmapItems(text string) map[string]string {
	items := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if h, ok := strings.CutPrefix(line, "### "); ok {
			num, title, found := strings.Cut(h, ". ")
			if _, err := strconv.Atoi(num); found && err == nil {
				items[num] = title
			}
		}
	}
	return items
}

// badCitations returns a finding for every citation in text, read from
// name, that names no DESIGN section, a title no heading of that section
// has, or no ROADMAP item. A citation may wrap: line breaks and the
// comment markers that start the next line read as one space.
func badCitations(c citable, name, text string) []string {
	var bad []string
	text = joinLines(text)
	for _, m := range designCite.FindAllStringSubmatch(text, -1) {
		titles, ok := c.sections[m[1]]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s cites %s: DESIGN.md has no section %s", name, m[0], m[1]))
		case m[2] != "" && !slices.Contains(titles, m[2]):
			bad = append(bad, fmt.Sprintf("%s cites %s: section %s has no heading %q", name, m[0], m[1], m[2]))
		}
	}
	for _, m := range roadmapCite.FindAllStringSubmatch(text, -1) {
		if m[1] != "" {
			if _, ok := c.items[m[1]]; !ok {
				bad = append(bad, fmt.Sprintf("%s cites %s: ROADMAP.md has no item %s", name, m[0], m[1]))
			}
			continue
		}
		named := false
		for _, title := range c.items {
			named = named || strings.Contains(title, m[2])
		}
		if !named {
			bad = append(bad, fmt.Sprintf("%s cites %s: no ROADMAP.md item's title contains %q", name, m[0], m[2]))
		}
	}
	return bad
}

// lineBreak is a line break with the indentation and comment marker
// that follow it.
var lineBreak = regexp.MustCompile(`[ \t]*\n[ \t]*(?:(?://|#)[ \t]*)?`)

func joinLines(text string) string { return lineBreak.ReplaceAllString(text, " ") }

// TestDocGateRules pins the doc budget and the citation gate on small
// inputs.
func TestDocGateRules(t *testing.T) {
	changes := "# CHANGES\n\n- short (kind): one line.\n- long (kind): two lines\n  " + strings.Repeat("x", changesEntryBudget) + "\n## Later\ntext\n"
	if got := changesEntries(changes); len(got) != 2 || got[0] != "- short (kind): one line." || !strings.HasSuffix(got[1], "x") {
		t.Errorf("entries = %q", got)
	}
	got := docBudget(strings.Repeat("d", designBudget+1), changes)
	if len(got) != 2 || !strings.HasPrefix(got[0], "DESIGN.md is 40001 bytes") || !strings.Contains(got[1], "long (kind)") {
		t.Errorf("budget findings = %q", got)
	}
	if got := docBudget("ok", "- fine: one line\n"); len(got) != 0 {
		t.Errorf("budget findings within budget = %q", got)
	}

	c := citable{
		designSections("# D\n\n## 3. Kernel\n\n### Lanes\n\n## 4. Wire\n### Buffers: pooled\n"),
		roadmapItems("# R\n\n## Open items\n\n### 1. Pull the plug: power-cut slice 1\n\n### 6. hyperbench follows the tree\n\n### Settled\n"),
	}
	if len(c.items) != 2 {
		t.Errorf("items = %q, want items 1 and 6 only", c.items)
	}
	pass := "x.go cites (DESIGN §3\n\t// \"Lanes\"), DESIGN.md §4 and DESIGN §4 \"Buffers\"; ROADMAP item 6, the ROADMAP\n\t// power-cut item, ROADMAP's hyperbench item and the ROADMAP item that decides it."
	if got := badCitations(c, "x.go", pass); len(got) != 0 {
		t.Errorf("findings on live citations = %q", got)
	}
	fail := `DESIGN §4 "Lanes", DESIGN §9, DESIGN §4 "Buff" and DESIGN.md §3 "Kernel"; ROADMAP item 9, ROADMAP's rack-scale PDES item and ROADMAP Settled item`
	want := []string{
		`y.md cites DESIGN §4 "Lanes": section 4 has no heading "Lanes"`,
		`y.md cites DESIGN §9: DESIGN.md has no section 9`,
		`y.md cites DESIGN §4 "Buff": section 4 has no heading "Buff"`,
		`y.md cites ROADMAP item 9: ROADMAP.md has no item 9`,
		`y.md cites ROADMAP's rack-scale PDES item: no ROADMAP.md item's title contains "rack-scale PDES"`,
		`y.md cites ROADMAP Settled item: no ROADMAP.md item's title contains "Settled"`,
	}
	if got := badCitations(c, "y.md", fail); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings = %q, want %q", got, want)
	}
}

// goFiles lists the repository's Go files outside testdata and hidden
// directories: its _test.go files when test is set, the others when not.
func goFiles(t *testing.T, test bool) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") && strings.HasSuffix(path, "_test.go") == test {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
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
// for the roots that are not functions: init bodies, package-level var
// initialisers and the standard library's calls through reachImplicit.
type reachGraph struct {
	module string                    // import-path prefix keys drop
	pos    map[string]token.Position // every function declaration but init
	pkg    map[string]string         // function -> its package's key
	calls  map[string][]string       // function -> functions it references
	dyn    map[string][]dynCall      // function -> methods it calls through an interface
	byName map[string][]string       // method id -> methods of that id
	types  []typeMethods             // method sets of the tree's named types
	ifaces map[string]methodSet      // interface key -> its method set
	impls  map[string][]typeMethods  // interface key -> the types that implement it
	roots  []string                  // main in every binary package
}

// dynCall is a call through the method id of the interface whose key
// is iface, or through a constraint with type terms when iface is "".
type dynCall struct{ iface, id string }

// methodSet maps a method's id (its name, qualified by its package's
// path when unexported) to its signature with every type qualified by
// package path. The loader type-checks each package against its
// dependencies' export data, so one type is several types.Type values
// and types.Implements misses; their strings agree.
type methodSet map[string]string

// typeMethods maps each method id of a named type's pointer method set
// to its signature and the key of the function that implements it,
// promoted ones included.
type typeMethods map[string]struct{ sig, key string }

func newReachGraph(pkgs []*analysis.Package, module string, binary func(path string) bool) *reachGraph {
	g := &reachGraph{
		module: module,
		pos:    make(map[string]token.Position),
		pkg:    make(map[string]string),
		calls:  make(map[string][]string),
		dyn:    make(map[string][]dynCall),
		byName: make(map[string][]string),
		ifaces: make(map[string]methodSet),
		impls:  make(map[string][]typeMethods),
	}
	named := make(map[*types.Named]bool)
	for _, p := range pkgs {
		for _, obj := range p.TypesInfo.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok {
					named[n] = true
				}
			}
		}
		// A generic type's methods match an interface in its
		// instantiations, where its signatures have concrete types.
		for _, inst := range p.TypesInfo.Instances {
			if n, ok := inst.Type.(*types.Named); ok {
				named[n] = true
			}
		}
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
						g.byName[fn.Id()] = append(g.byName[fn.Id()], k)
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
	for _, ms := range reachImplicit {
		k := g.addIface(ms)
		for id := range ms {
			g.dyn[""] = append(g.dyn[""], dynCall{k, id})
		}
	}
	for n := range named {
		if _, ok := n.Underlying().(*types.Interface); ok {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(n))
		tm := make(typeMethods, ms.Len())
		for i := 0; i < ms.Len(); i++ {
			fn := ms.At(i).Obj().(*types.Func)
			tm[fn.Id()] = struct{ sig, key string }{sigString(fn.Type().(*types.Signature)), g.key(fn.Origin())}
		}
		if len(tm) > 0 {
			g.types = append(g.types, tm)
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
			g.dyn[from] = append(g.dyn[from], dynCall{g.iface(r.Type().Underlying().(*types.Interface)), fn.Id()})
		} else if fn.Pkg() != nil {
			g.calls[from] = append(g.calls[from], g.key(fn))
		}
		return true
	})
}

// iface files the method set of interface it and returns its key, or
// "" when it has type terms: such a constraint resolves its calls by
// method id.
func (g *reachGraph) iface(it *types.Interface) string {
	if !it.IsMethodSet() {
		return ""
	}
	ms := make(methodSet, it.NumMethods())
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		ms[m.Id()] = sigString(m.Type().(*types.Signature))
	}
	return g.addIface(ms)
}

// addIface files ms under its key, the sorted list of its methods.
func (g *reachGraph) addIface(ms methodSet) string {
	lines := make([]string, 0, len(ms))
	for id, sig := range ms {
		lines = append(lines, id+sig)
	}
	sort.Strings(lines)
	k := strings.Join(lines, "; ")
	g.ifaces[k] = ms
	return k
}

// sigString prints sig's parameter and result types, qualified by
// package path, as in "(int, ...[]byte) (bool, error)".
func sigString(sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	list := func(t *types.Tuple, variadic bool) string {
		parts := make([]string, t.Len())
		for i := range parts {
			parts[i] = types.TypeString(t.At(i).Type(), qual)
		}
		if variadic {
			parts[len(parts)-1] = "..." + parts[len(parts)-1]
		}
		return strings.Join(parts, ", ")
	}
	s := "(" + list(sig.Params(), sig.Variadic()) + ")"
	switch res := sig.Results(); {
	case res.Len() == 1:
		s += " " + list(res, false)
	case res.Len() > 1:
		s += " (" + list(res, false) + ")"
	}
	return s
}

// implementers returns the tree's types whose pointer method sets
// match the interface with key iface.
func (g *reachGraph) implementers(iface string) []typeMethods {
	impl, ok := g.impls[iface]
	if !ok {
		for _, t := range g.types {
			if t.implements(g.ifaces[iface]) {
				impl = append(impl, t)
			}
		}
		g.impls[iface] = impl
	}
	return impl
}

func (t typeMethods) implements(ms methodSet) bool {
	for id, sig := range ms {
		if m, ok := t[id]; !ok || m.sig != sig {
			return false
		}
	}
	return true
}

func (g *reachGraph) key(fn *types.Func) string { return funcKey(fn, g.module) }

// funcKey names a function by its package path without the module
// prefix, its receiver's type name and its own name. Two type-checks of
// one package make two *types.Func for each function; their keys agree.
func funcKey(fn *types.Func, module string) string {
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
	return strings.TrimPrefix(fn.Pkg().Path(), module) + "." + name
}

// reach returns every function reachable from the roots and seeds.
func (g *reachGraph) reach(seeds []string) map[string]bool {
	seen := make(map[string]bool)
	done := make(map[dynCall]bool)
	work := append(append([]string{""}, g.roots...), seeds...)
	called := func(c dynCall) {
		if done[c] {
			return
		}
		done[c] = true
		if c.iface == "" {
			work = append(work, g.byName[c.id]...)
			return
		}
		for _, t := range g.implementers(c.iface) {
			work = append(work, t[c.id].key)
		}
	}
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[k] {
			continue
		}
		seen[k] = true
		work = append(work, g.calls[k]...)
		for _, c := range g.dyn[k] {
			called(c)
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
	if fn, ok := info.Uses[calleeIdent(call)].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == faultPath {
		return fn.Name()
	}
	return ""
}

// calleeIdent returns the identifier call names its callee by, through
// a selector and a generic instantiation, or nil.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	switch x := fun.(type) {
	case *ast.SelectorExpr:
		return x.Sel
	case *ast.Ident:
		return x
	}
	return nil
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

// knobAllow names the knobs that stay knobs anyway, each with its
// reason: the Config and Options fields no binary sets, and the
// parameters every call site passes one constant. A reason cites the
// live test that turns the knob to reach a behaviour or budget the
// constant cannot, frozen cmd/hyperbench, which reads or passes it, a
// credential, a deployment setting (an address or a path), or the
// ROADMAP item that decides it. A field's key is the package path
// without the module prefix, the struct's name and the field's
// ("internal/netsim.Config.QueueFrames"); a parameter's is its function's
// reachAllow key with the parameter in parentheses
// ("internal/storage/kvssd.Create(durable)"). An entry that names no
// knob, names a turned one, or cites none of the five fails
// TestEveryKnobIsTurned.
var knobAllow = map[string]string{
	"internal/core.Config.AuthTag": "a credential: the bitstream authorization tag is a deployment secret",

	"internal/cluster.NewRouter(name)":    "a deployment setting: the client's address on the fabric",
	"internal/storage/hfs.FS.Mkdir(path)": "a deployment setting: the path a deployment keeps its tables under",

	"internal/fabric.Config.ClockHz":    "frozen cmd/hyperbench reads it; TestBootSelfTestFails breaks the fabric through it",
	"internal/nvme.Config.BlockSize":    "frozen cmd/hyperbench reads it; TestBlockShiftMatchesDivision builds devices that disagree on it",
	"internal/tenant.Config.DepthItems": "frozen cmd/hyperbench reads it; TestSchedulerProperties shrinks it",

	"internal/bench.RackSweep(seed)":                "frozen cmd/hyperbench passes it (ROADMAP item 6)",
	"internal/fabric.NewWFQArbiter(widthBytes)":     "frozen cmd/hyperbench passes it (ROADMAP item 6)",
	"internal/nvmeof.NewTarget(qid)":                "frozen cmd/hyperbench passes it (ROADMAP item 6)",
	"internal/rpc.NewServer(#3)":                    "frozen cmd/hyperbench passes the mode (ROADMAP item 6)",
	"internal/storage/colfmt.Reader.ScanInt64(col)": "frozen cmd/hyperbench passes it (ROADMAP item 6)",
	"internal/storage/colfmt.Writer.Close(durable)": "frozen cmd/hyperbench passes it (ROADMAP item 6)",
	"internal/storage/kvssd.Create(durable)":        "frozen cmd/hyperbench passes it (ROADMAP item 6)",
	"internal/telemetry.Recorder.Begin(layer)":      "frozen cmd/hyperbench passes it; model code records through Span (ROADMAP item 6)",
	"internal/telemetry.Recorder.Begin(name)":       "frozen cmd/hyperbench passes it; model code records through Span (ROADMAP item 6)",
	"internal/telemetry.Recorder.Count(n)":          "frozen cmd/hyperbench passes it (ROADMAP item 6)",

	"internal/energy.Meter.SetUtilization(util)": "ROADMAP item 9 drives E3's utilisation from busy time",

	"internal/netsim.Config.QueueFrames": "TestReliableRecoversFromIncastLoss and the other shallow-queue transport tests force congestion drops through it",
	"internal/rack.Config.Replicas":      "TestRackAllocBudget's 0.18 objects / 440 B per op are measured at 2 boxes × 2 replicas",
	"internal/seg.Config.TableBlocks":    "FuzzRecover's 2-block rig keeps its checkpoint image small enough to fuzz",
}

// knobReason matches the five things a knobAllow reason may cite.
var knobReason = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*|cmd/hyperbench|credential|deployment setting|ROADMAP`)

// TestEveryKnobIsTurned fails on every configuration field that only
// its own package's Default* constructor sets, and on every parameter
// its call sites all pass one constant: a value one binary uses is a
// constant beside its reader (DESIGN §2 "Model parameters"). A field
// knob is a field of an exported struct type named Options or *Config
// in a non-test package; a field whose type is itself such a struct is
// a container, and only its own fields are judged. A field is turned
// when a non-test function outside examples/ writes it: assigns it
// through a selector, takes its address, or names it as a
// composite-literal key. An unkeyed literal writes every field. A
// Default* function of the knob's own package turns it only by writing
// one of its parameters: then its caller chose the value. paramKnobs
// says when a parameter is a knob.
func TestEveryKnobIsTurned(t *testing.T) {
	pkgs, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	counts := func(file string) bool { return !strings.HasPrefix(file, "examples/") }
	for _, f := range knobGate(pkgs, "hyperion/", counts, knobAllow) {
		t.Error(f)
	}
}

// TestKnobGateRules pins each rule of the knob gate on a small program;
// its example.go stands for examples/. For parameters: a constant one
// (pad), one two call sites turn (scale), one a function value turns
// (apply), a single call site (once), a variadic function (sum), an
// allow line for a deployment setting (listen), stale lines and a line
// without a reason (grow).
func TestKnobGateRules(t *testing.T) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.NewLoader(root).LoadDir(filepath.Join("testdata", "knobs"), "knobdemo")
	if err != nil {
		t.Fatal(err)
	}
	counts := func(file string) bool { return !strings.HasSuffix(file, "example.go") }
	got := knobGate([]*analysis.Package{pkg}, "", counts, map[string]string{
		"knobdemo.Config.Allowed": "TestKnobGateRules sets it",
		"knobdemo.Config.Keyed":   "stale: run sets it",
		"knobdemo.Config.Vague":   "no reason a reader can check",
		"knobdemo.Config.Gone":    "stale: no such field",
		"knobdemo.listen(addr)":   "a deployment setting: the listen address",
		"knobdemo.grow(by)":       "no reason a reader can check",
		"knobdemo.scale(factor)":  "stale: two values",
		"knobdemo.apply(n)":       "stale: a function value",
		"knobdemo.once(n)":        "stale: one call site",
		"knobdemo.sum(first)":     "stale: variadic",
	})
	want := []string{
		`knobAllow: knobdemo.Config.Gone names no knob`,
		`knobAllow: knobdemo.Config.Keyed is turned at testdata/knobs/main.go:43:16: delete its line`,
		`knobAllow: knobdemo.Config.Vague's reason cites no test, cmd/hyperbench, credential, deployment setting or ROADMAP item`,
		`knobAllow: knobdemo.apply(n) is turned at testdata/knobs/params.go:36:7: delete its line`,
		`knobAllow: knobdemo.grow(by)'s reason cites no test, cmd/hyperbench, credential, deployment setting or ROADMAP item`,
		`knobAllow: knobdemo.once(n) has one call site: delete its line`,
		`knobAllow: knobdemo.scale(factor) is turned at testdata/knobs/params.go:37:52: delete its line`,
		`knobAllow: knobdemo.sum(first) belongs to a variadic function: delete its line`,
		`testdata/knobs/main.go:12:2: knobdemo.Config.ByDefault is set by no binary: make it a constant beside its reader, or give it a knobAllow line with its reason`,
		`testdata/knobs/main.go:14:2: knobdemo.Config.ByExample is set by no binary: make it a constant beside its reader, or give it a knobAllow line with its reason`,
		`testdata/knobs/main.go:23:2: knobdemo.Options.Depth is set by no binary: make it a constant beside its reader, or give it a knobAllow line with its reason`,
		`testdata/knobs/params.go:5:20: knobdemo.pad(width) is passed 8 at all 2 call sites: inline it, or give it a knobAllow line with its reason`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// knobGate returns the findings of the knob gate over pkgs, sorted:
// unturned knobs at file:line, then bad allow entries. counts says
// whether writes in a file, as relPosition prints it, turn a field.
func knobGate(pkgs []*analysis.Package, module string, counts func(file string) bool, allow map[string]string) []string {
	knobs := make(map[string]string)  // knob -> its finding
	turned := make(map[string]string) // field or parameter -> why it is no knob
	fieldKnobs(pkgs, module, counts, knobs, turned)
	paramKnobs(pkgs, module, knobs, turned)
	var findings []string
	for k, finding := range knobs {
		if _, ok := turned[k]; !ok && allow[k] == "" {
			findings = append(findings, finding)
		}
	}
	slices.Sort(findings)
	var bad []string
	for k, reason := range allow {
		_, known := knobs[k]
		switch why, ok := turned[k]; {
		case ok:
			bad = append(bad, fmt.Sprintf("knobAllow: %s %s: delete its line", k, why))
		case !known:
			bad = append(bad, fmt.Sprintf("knobAllow: %s names no knob", k))
		case !knobReason.MatchString(reason):
			bad = append(bad, fmt.Sprintf("knobAllow: %s's reason cites no test, cmd/hyperbench, credential, deployment setting or ROADMAP item", k))
		}
	}
	slices.Sort(bad)
	return append(bad, findings...)
}

// fieldKnobs files every field of a knob struct under its key, the
// package path without the module prefix, the struct's name and the
// field's, and marks it turned at its first counting write.
func fieldKnobs(pkgs []*analysis.Package, module string, counts func(file string) bool, knobs, turned map[string]string) {
	key := func(n *types.Named, field string) string {
		o := n.Obj()
		return strings.TrimPrefix(o.Pkg().Path(), module) + "." + o.Name() + "." + field
	}
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || knobStruct(tn.Type()) == nil {
				continue
			}
			st := tn.Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); knobStruct(f.Type()) == nil {
					k := key(tn.Type().(*types.Named), f.Name())
					knobs[k] = fmt.Sprintf("%s: %s is set by no binary: make it a constant beside its reader, or give it a knobAllow line with its reason", relPosition(p.Fset.Position(f.Pos())), k)
				}
			}
		}
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			if !counts(relPosition(p.Fset.Position(f.Pos())).Filename) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				// A Default* function's writes do not turn its own package's
				// knobs, unless the value is one of its parameters: then
				// its caller chose it.
				ctor := ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Default")
				param := func(e ast.Expr) bool {
					id, ok := e.(*ast.Ident)
					if !ok {
						return false
					}
					v, ok := p.TypesInfo.Uses[id].(*types.Var)
					return ok && v.Parent() == p.TypesInfo.Defs[fd.Name].(*types.Func).Scope()
				}
				write := func(n *types.Named, field string, at token.Pos, value ast.Expr) {
					if n == nil || ctor && n.Obj().Pkg().Path() == p.Path && !param(value) {
						return
					}
					k := key(n, field)
					if _, done := turned[k]; !done {
						turned[k] = fmt.Sprintf("is turned at %s", relPosition(p.Fset.Position(at)))
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for i, l := range n.Lhs {
							var value ast.Expr
							if len(n.Rhs) == len(n.Lhs) {
								value = n.Rhs[i]
							}
							named, field, at := fieldOwner(p.TypesInfo, l)
							write(named, field, at, value)
						}
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							named, field, at := fieldOwner(p.TypesInfo, n.X)
							write(named, field, at, nil)
						}
					case *ast.CompositeLit:
						named := derefNamed(p.TypesInfo.Types[n].Type)
						if named == nil || len(n.Elts) == 0 {
							break
						}
						if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
							st, ok := named.Underlying().(*types.Struct)
							for i := 0; ok && i < st.NumFields() && i < len(n.Elts); i++ {
								write(named, st.Field(i).Name(), n.Elts[i].Pos(), n.Elts[i])
							}
							break
						}
						for _, e := range n.Elts {
							kv := e.(*ast.KeyValueExpr)
							if id, ok := kv.Key.(*ast.Ident); ok {
								write(named, id.Name, kv.Pos(), kv.Value)
							}
						}
					}
					return true
				})
			}
		}
	}
}

// paramKnobs files every parameter of a function the tree declares
// under its function's key, as reachGraph keys it, with the parameter's
// name in parentheses ("internal/storage/kvssd.Create(durable)"), or its
// 1-based place when it has none ("internal/rpc.NewServer(#3)").
// A parameter is a knob when at least two call sites, examples/ and
// cmd/ included, pass it the same constant, nil counting as one. It is
// turned by a site that passes another value or a non-constant one, and
// by a reference to its function that is not a call: a function value
// takes whatever its holder passes. A variadic function's parameters
// are exempt, and a call through an interface is a site of the
// interface's method, which no declaration judges.
func paramKnobs(pkgs []*analysis.Package, module string, knobs, turned map[string]string) {
	type param struct {
		pos      token.Position
		variadic bool
		sites    int
		value    string // the constant the first site passes
		show     string // value as the finding prints it
	}
	params := make(map[string]*param)
	names := make(map[string][]string) // function key -> its parameters' keys, in order
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := p.TypesInfo.Defs[fd.Name].(*types.Func)
				fk := funcKey(fn, module)
				variadic := fn.Type().(*types.Signature).Variadic()
				for _, field := range fd.Type.Params.List {
					ids := field.Names
					if len(ids) == 0 {
						ids = []*ast.Ident{{Name: "_", NamePos: field.Pos()}}
					}
					for _, id := range ids {
						name := id.Name
						if name == "_" {
							name = fmt.Sprintf("#%d", len(names[fk])+1)
						}
						k := fk + "(" + name + ")"
						params[k] = &param{pos: relPosition(p.Fset.Position(id.Pos())), variadic: variadic}
						names[fk] = append(names[fk], k)
					}
				}
			}
		}
	}
	turn := func(k string, at token.Position) {
		if _, done := turned[k]; !done {
			turned[k] = fmt.Sprintf("is turned at %s", at)
		}
	}
	for _, p := range pkgs {
		// Inspect meets a call before its callee's identifier, so an
		// identifier not marked called by then is a function value.
		called := make(map[*ast.Ident]bool)
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !called[id] {
					if fn, ok := p.TypesInfo.Uses[id].(*types.Func); ok && fn.Pkg() != nil {
						for _, k := range names[funcKey(fn.Origin(), module)] {
							turn(k, relPosition(p.Fset.Position(id.Pos())))
						}
					}
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id := calleeIdent(call)
				fn, ok := p.TypesInfo.Uses[id].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					if s := p.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.MethodExpr {
						return true // it passes the receiver first; its identifier turns every parameter
					}
				}
				called[id] = true
				keys := names[funcKey(fn.Origin(), module)]
				for i, k := range keys {
					pm := params[k]
					pm.sites++
					if len(call.Args) != len(keys) {
						turn(k, relPosition(p.Fset.Position(call.Pos())))
						continue
					}
					arg := call.Args[i]
					value, show := "", ""
					switch tv := p.TypesInfo.Types[arg]; {
					case tv.Value != nil:
						value, show = tv.Value.ExactString(), tv.Value.String()
					case tv.IsNil():
						value, show = "nil", "nil"
					}
					if pm.sites == 1 {
						pm.value, pm.show = value, show
					}
					if value == "" || value != pm.value {
						turn(k, relPosition(p.Fset.Position(arg.Pos())))
					}
				}
				return true
			})
		}
	}
	for k, pm := range params {
		switch {
		case pm.variadic:
			turned[k] = "belongs to a variadic function"
		case pm.sites < 2:
			if _, ok := turned[k]; !ok {
				turned[k] = []string{"has no call site", "has one call site"}[pm.sites]
			}
		}
		knobs[k] = fmt.Sprintf("%s: %s is passed %s at all %d call sites: inline it, or give it a knobAllow line with its reason", pm.pos, k, pm.show, pm.sites)
	}
}

// knobStruct returns t as a knob struct type, or nil.
func knobStruct(t types.Type) *types.Named {
	n, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	name := n.Obj().Name()
	if _, isStruct := n.Underlying().(*types.Struct); !isStruct || !token.IsExported(name) || name != "Options" && !strings.HasSuffix(name, "Config") {
		return nil
	}
	return n
}

// fieldOwner resolves e, when it selects a struct field, to the named
// struct that declares the field, the field's name and e's position.
func fieldOwner(info *types.Info, e ast.Expr) (*types.Named, string, token.Pos) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil, "", token.NoPos
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil, "", token.NoPos
	}
	t := s.Recv()
	for _, i := range s.Index()[:len(s.Index())-1] { // through embedded fields
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		t = t.Underlying().(*types.Struct).Field(i).Type()
	}
	return derefNamed(t), sel.Sel.Name, sel.Pos()
}

// derefNamed returns t, or what t points to, as a named type, or nil.
func derefNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
