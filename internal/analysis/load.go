package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked compilation unit.
type Package struct {
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Loader parses and type-checks packages without golang.org/x/tools.
// Dependencies are imported from gc export data located via
// `go list -export`, which works fully offline: the go toolchain
// compiles (or reuses from the build cache) whatever the target
// imports. Target packages themselves are parsed from source so the
// analyzers see syntax.
type Loader struct {
	// Dir is the module root: where `go list` runs.
	Dir string

	Fset    *token.FileSet
	exports map[string]string // import path -> export data file
	imp     types.Importer
}

// NewLoader returns a loader rooted at the module directory dir.
func NewLoader(dir string) *Loader {
	l := &Loader{Dir: dir, Fset: token.NewFileSet(), exports: make(map[string]string)}
	compiler := importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
		file, err := l.exportFile(path)
		if err != nil {
			return nil, err
		}
		return os.Open(file)
	})
	l.imp = importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compiler.Import(path)
	})
	return l
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportFile resolves an import path to its export data, asking
// `go list -export` for anything the cache doesn't already hold.
func (l *Loader) exportFile(path string) (string, error) {
	if f, ok := l.exports[path]; ok {
		if f == "" {
			return "", fmt.Errorf("no export data for %q", path)
		}
		return f, nil
	}
	out, err := l.goList("-export", "-f", "{{.Export}}", "--", path)
	if err != nil {
		return "", fmt.Errorf("resolving import %q: %v", path, err)
	}
	f := strings.TrimSpace(string(out))
	l.exports[path] = f
	if f == "" {
		return "", fmt.Errorf("no export data for %q", path)
	}
	return f, nil
}

func (l *Loader) goList(args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Module     *struct {
		Path      string
		GoVersion string
	}
	Error *struct{ Err string }
}

// LoadPatterns expands package patterns (typically "./...") and returns
// the matched module packages parsed and type-checked, in a stable
// order. Dependencies — standard library included — are pre-resolved to
// export data in one `go list -export -deps` invocation.
func (l *Loader) LoadPatterns(patterns ...string) ([]*Package, error) {
	args := append([]string{
		"-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Standard,Module,Error",
		"--",
	}, patterns...)
	out, err := l.goList(args...)
	if err != nil {
		return nil, err
	}
	var targets []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Error != nil && !p.DepOnly {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			pc := p
			targets = append(targets, &pc)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	pkgs := make([]*Package, 0, len(targets))
	for _, t := range targets {
		goVersion := ""
		if t.Module != nil && t.Module.GoVersion != "" {
			goVersion = "go" + t.Module.GoVersion
		}
		files := make([]string, len(t.GoFiles))
		for i, f := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, f)
		}
		pkg, err := l.check(t.ImportPath, goVersion, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir parses every .go file in dir as a single package named by
// importPath and type-checks it. Used by the analysistest harness to
// load testdata packages, which live outside the module proper but may
// import module packages (e.g. hyperion/internal/sim).
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return l.check(importPath, "", files)
}

func (l *Loader) check(importPath, goVersion string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer:  l.imp,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: goVersion,
	}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	return &Package{Path: importPath, Fset: l.Fset, Files: files, Types: tpkg, TypesInfo: info}, nil
}

// ModuleRoot walks upward from dir to the enclosing go.mod, for callers
// (tests) that need a loader but don't know where the module starts.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
