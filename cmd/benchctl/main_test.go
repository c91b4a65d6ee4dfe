package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchctlBin is the binary under test, built once in TestMain — the
// exit-code contract belongs to the executable, not the package, so
// these tests drive it through os/exec exactly as CI does.
var benchctlBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchctl-test")
	if err != nil {
		panic(err)
	}
	benchctlBin = filepath.Join(dir, "benchctl")
	out, err := exec.Command("go", "build", "-o", benchctlBin, ".").CombinedOutput()
	if err != nil {
		panic("building benchctl: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes benchctl with args and returns combined output and the
// exit code (0 on success, -1 if it did not exit normally).
func run(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(benchctlBin, args...)
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return string(out), ee.ExitCode()
	}
	t.Fatalf("running benchctl %v: %v", args, err)
	return "", -1
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // cmd/benchctl -> repo root
}

func TestExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns full experiment runs")
	}
	for _, tc := range []struct {
		name     string
		args     []string
		wantExit int
		wantOut  string
	}{
		{"usage", nil, 2, "usage: benchctl"},
		{"unknown experiment", []string{"no-such-experiment"}, 1, "unknown experiment"},
		{"list includes chaos", []string{"list"}, 0, "E16"},
		{"single experiment", []string{"table1"}, 0, "== E1"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out, exit := run(t, tc.args...)
			if exit != tc.wantExit {
				t.Fatalf("exit = %d, want %d; output:\n%s", exit, tc.wantExit, out)
			}
			if !strings.Contains(out, tc.wantOut) {
				t.Fatalf("output missing %q:\n%s", tc.wantOut, out)
			}
		})
	}
}

// TestTraceFlag exercises the -trace surface: a bad directory fails
// fast, a traced run writes all three artifacts with a schema-valid
// Chrome trace, and untraced experiments degrade with a note.
func TestTraceFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns full experiment runs")
	}
	t.Run("bad directory", func(t *testing.T) {
		t.Parallel()
		out, exit := run(t, "-trace", "no-such-dir", "fig2")
		if exit != 1 {
			t.Fatalf("exit = %d, want 1; output:\n%s", exit, out)
		}
		if !strings.Contains(out, "not a directory") {
			t.Fatalf("output missing diagnostic:\n%s", out)
		}
	})
	t.Run("file as directory", func(t *testing.T) {
		t.Parallel()
		f := filepath.Join(t.TempDir(), "plain-file")
		if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if out, exit := run(t, "-trace", f, "fig2"); exit != 1 {
			t.Fatalf("exit = %d, want 1; output:\n%s", exit, out)
		}
	})
	t.Run("traced experiment writes artifacts", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		out, exit := run(t, "-trace", dir, "fig2")
		if exit != 0 {
			t.Fatalf("exit = %d, want 0; output:\n%s", exit, out)
		}
		if !strings.Contains(out, "== E2") || !strings.Contains(out, "trace artifacts:") {
			t.Fatalf("output missing table or artifact line:\n%s", out)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "E2.trace.json"))
		if err != nil {
			t.Fatalf("trace artifact missing: %v", err)
		}
		if !json.Valid(raw) {
			t.Fatal("E2.trace.json is not valid JSON")
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Fatalf("E2.trace.json has no traceEvents (err=%v)", err)
		}
		for _, name := range []string{"E2.hist.txt", "E2.critpath.txt"} {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("artifact missing: %v", err)
			}
			if len(b) == 0 {
				t.Fatalf("%s is empty", name)
			}
		}
	})
	t.Run("untraced experiment degrades with note", func(t *testing.T) {
		t.Parallel()
		out, exit := run(t, "-trace", t.TempDir(), "table1")
		if exit != 0 {
			t.Fatalf("exit = %d, want 0; output:\n%s", exit, out)
		}
		if !strings.Contains(out, "no traced form") || !strings.Contains(out, "== E1") {
			t.Fatalf("output missing degradation note or table:\n%s", out)
		}
	})
}

// TestTenantsExperiment drives E18 through the executable: the sweep
// must run, its table must be shard-count invariant across processes,
// and the traced form must write artifacts while printing the same
// table bytes.
func TestTenantsExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns full experiment runs")
	}
	t.Run("runs and reports the sweep", func(t *testing.T) {
		t.Parallel()
		out, exit := run(t, "tenants")
		if exit != 0 {
			t.Fatalf("exit = %d, want 0; output:\n%s", exit, out)
		}
		for _, want := range []string{"== E18", "tenants", "quiet p99", "admission cap"} {
			if !strings.Contains(out, want) {
				t.Fatalf("output missing %q:\n%s", want, out)
			}
		}
	})
	t.Run("shard count is a layout knob", func(t *testing.T) {
		t.Parallel()
		one, exit := run(t, "-shards", "1", "tenants")
		if exit != 0 {
			t.Fatalf("1-shard exit = %d; output:\n%s", exit, one)
		}
		two, exit := run(t, "-shards", "2", "tenants")
		if exit != 0 {
			t.Fatalf("2-shard exit = %d; output:\n%s", exit, two)
		}
		if one != two {
			t.Fatalf("E18 output differs across shard counts:\n--- 1 shard ---\n%s\n--- 2 shards ---\n%s", one, two)
		}
	})
	t.Run("traced run writes artifacts and matches untraced table", func(t *testing.T) {
		t.Parallel()
		plain, exit := run(t, "tenants")
		if exit != 0 {
			t.Fatalf("untraced exit = %d; output:\n%s", exit, plain)
		}
		dir := t.TempDir()
		traced, exit := run(t, "-trace", dir, "tenants")
		if exit != 0 {
			t.Fatalf("traced exit = %d; output:\n%s", exit, traced)
		}
		if i := strings.Index(traced, "trace artifacts:"); i < 0 || traced[:i] != plain {
			t.Fatalf("traced table diverged from untraced:\n--- traced ---\n%s\n--- untraced ---\n%s", traced, plain)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "E18.trace.json"))
		if err != nil {
			t.Fatalf("trace artifact missing: %v", err)
		}
		if !json.Valid(raw) {
			t.Fatal("E18.trace.json is not valid JSON")
		}
		for _, name := range []string{"E18.hist.txt", "E18.critpath.txt"} {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("artifact missing: %v", err)
			}
			if len(b) == 0 {
				t.Fatalf("%s is empty", name)
			}
		}
	})
}
