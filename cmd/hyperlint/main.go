// Command hyperlint checks the Hyperion tree against the determinism
// and datapath-discipline contract: the nodeterm, maprange, eventref,
// simtime, unsafeptr, bufown and sharedstate analyzers (the suite in
// internal/analysis/checkers).
//
// It runs two ways:
//
//	hyperlint ./...                      # standalone, loads packages itself
//	go vet -vettool=$(which hyperlint) ./...   # as a vet plugin
//
// The vet mode speaks the `go vet -vettool` protocol: -V=full for
// build caching, -flags for flag discovery, and a *.cfg JSON file
// describing one compilation unit per invocation. Diagnostics print as
// file:line:col: messages; the exit status is 1 when anything fired.
// Standalone mode additionally supports -json, which emits the full
// finding list as a JSON array on stdout for CI annotation tooling.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"strings"

	"hyperion/internal/analysis"
	"hyperion/internal/analysis/checkers"
)

func main() {
	log := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "hyperlint: "+format+"\n", args...)
	}

	// The -V and -flags protocol handshakes arrive before normal flag
	// parsing can see them, so peek at argv directly.
	if len(os.Args) == 2 {
		switch {
		case os.Args[1] == "-V=full" || os.Args[1] == "--V=full":
			printVersion()
			return
		case os.Args[1] == "-flags" || os.Args[1] == "--flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(os.Args[1], ".cfg"):
			os.Exit(runVetUnit(os.Args[1], log))
		}
	}

	checks := flag.String("checks", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout (machine-readable)")
	flag.Parse()

	suite, err := checkers.Select(splitNonEmpty(*checks))
	if err != nil {
		log("%v", err)
		os.Exit(2)
	}
	if *list {
		for _, a := range suite {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		log("%v", err)
		os.Exit(2)
	}
	root, err := analysis.ModuleRoot(wd)
	if err != nil {
		log("%v", err)
		os.Exit(2)
	}
	loader := analysis.NewLoader(root)
	pkgs, err := loader.LoadPatterns(patterns...)
	if err != nil {
		log("%v", err)
		os.Exit(2)
	}
	exit := 0
	all := make([]jsonFinding, 0)
	for _, pkg := range pkgs {
		findings, err := analysis.RunAnalyzers(pkg, suite)
		if err != nil {
			log("%s: %v", pkg.Path, err)
			os.Exit(2)
		}
		for _, f := range findings {
			if *jsonOut {
				all = append(all, jsonFinding{
					File:    f.Position.Filename,
					Line:    f.Position.Line,
					Col:     f.Position.Column,
					Check:   f.Check,
					Message: f.Message,
				})
			} else {
				fmt.Printf("%s: [%s] %s\n", f.Position, f.Check, f.Message)
			}
			exit = 1
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			log("%v", err)
			os.Exit(2)
		}
	}
	os.Exit(exit)
}

// jsonFinding is the -json output record: one diagnostic, stable field
// names for CI annotation tooling.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func splitNonEmpty(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// printVersion implements the -V=full handshake: the go command hashes
// the reply into its build cache key, so it must change whenever the
// binary does — hashing the executable itself guarantees that.
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s version devel buildID=%x\n", exe, h.Sum(nil))
}

// vetConfig mirrors the JSON compilation-unit description the go
// command hands a vettool (x/tools unitchecker.Config).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetUnit analyzes one compilation unit described by cfgFile and
// returns the process exit code.
func runVetUnit(cfgFile string, log func(string, ...any)) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log("%v", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		log("cannot decode vet config %s: %v", cfgFile, err)
		return 2
	}

	// The go command drives every dependency through the tool so that
	// fact-based analyzers can propagate; hyperlint's checks are all
	// package-local, so dependency units need no analysis at all —
	// just the (empty) facts file the protocol expects.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
				log("%v", err)
			}
		}
	}
	if cfg.VetxOnly {
		writeVetx()
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				writeVetx()
				return 0
			}
			log("%v", err)
			return 2
		}
		files = append(files, f)
	}

	compilerImp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if importPath == "unsafe" {
			return types.Unsafe, nil
		}
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		return compilerImp.Import(path)
	})

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tconf := types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	tpkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return 0
		}
		log("type-checking %s: %v", cfg.ImportPath, err)
		return 2
	}

	pkg := &analysis.Package{
		Path:      cfg.ImportPath,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}
	findings, err := analysis.RunAnalyzers(pkg, checkers.All())
	if err != nil {
		log("%s: %v", cfg.ImportPath, err)
		return 2
	}
	writeVetx()
	exit := 0
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", f.Position, f.Check, f.Message)
		exit = 1
	}
	return exit
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
