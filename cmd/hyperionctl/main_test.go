package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// hyperionctlBin is the binary under test, built once in TestMain — the
// exit-code contract belongs to the executable, not the package, so
// these tests drive it through os/exec exactly as an operator would.
var hyperionctlBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hyperionctl-test")
	if err != nil {
		panic(err)
	}
	hyperionctlBin = filepath.Join(dir, "hyperionctl")
	out, err := exec.Command("go", "build", "-o", hyperionctlBin, ".").CombinedOutput()
	if err != nil {
		panic("building hyperionctl: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes hyperionctl with args and returns combined output and
// the exit code (0 on success, -1 if it did not exit normally).
func run(t *testing.T, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(hyperionctlBin, args...).CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return string(out), ee.ExitCode()
	}
	t.Fatalf("running hyperionctl %v: %v", args, err)
	return "", -1
}

func TestExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns full control sessions")
	}
	for _, tc := range []struct {
		name     string
		args     []string
		wantExit int
		wantOut  []string
	}{
		{"usage", nil, 2, []string{"usage: hyperionctl"}},
		{"unknown command", []string{"frobnicate"}, 2, []string{"unknown command"}},
		// status is the way to see the boot-time PCIe enumeration: one
		// line per SSD behind the root complex.
		{"status", []string{"status"}, 0, []string{"dpu0",
			"pcie: port0: dpu0-ssd0 x4 BAR=", "pcie: port1: dpu0-ssd1 x4 BAR=",
			"pcie: port2: dpu0-ssd2 x4 BAR=", "pcie: port3: dpu0-ssd3 x4 BAR="}},
		{"load", []string{"load", "-slot", "1", "-mib", "8"}, 0, []string{"partial reconfiguration"}},
		{"forged load rejected", []string{"load", "-slot", "1", "-forge"}, 0, []string{"load rejected"}},
		{"session", []string{"session"}, 0, []string{"forged bitstream is rejected"}},
		// A Go panic also exits 2: these rows hold the message, and every
		// row holds the absence of a goroutine dump.
		{"rack boxes below replicas", []string{"rack", "-boxes", "2"}, 2, []string{"-boxes must be >= 3"}},
		{"rack no shards", []string{"rack", "-shards", "0"}, 2, []string{"-shards >= 1"}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out, exit := run(t, tc.args...)
			if exit != tc.wantExit {
				t.Fatalf("exit = %d, want %d; output:\n%s", exit, tc.wantExit, out)
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(out, want) {
					t.Fatalf("output missing %q:\n%s", want, out)
				}
			}
			if strings.Contains(out, "goroutine ") {
				t.Fatalf("panicked:\n%s", out)
			}
		})
	}
}

// TestRackCommand pins the operator view of the sharded kernel: the
// shard count is a layout knob, so the two summary lines (ops, ok, err,
// sim-time; events, windows, lookahead) are identical at 1 and 4 shards
// apart from the shard count itself, and only the per-shard rows move.
func TestRackCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns full rack scenarios")
	}
	report := func(shards string) (summary string, rows int) {
		out, exit := run(t, "rack", "-boxes", "8", "-shards", shards)
		if exit != 0 {
			t.Fatalf("-shards %s: exit = %d, want 0; output:\n%s", shards, exit, out)
		}
		lines := strings.Split(out, "\n")
		layout := "rack: 8 boxes on " + shards + " shards"
		if len(lines) < 2 || !strings.HasPrefix(lines[0], layout) {
			t.Fatalf("-shards %s: output does not open with %q:\n%s", shards, layout, out)
		}
		summary = strings.TrimPrefix(lines[0], layout) + "\n" + lines[1]
		for _, want := range []string{"ops=", " ok=", " err=", "sim-time ", " events, "} {
			if !strings.Contains(summary, want) {
				t.Fatalf("-shards %s: summary missing %q:\n%s", shards, want, out)
			}
		}
		for _, line := range lines[2:] {
			if f := strings.Fields(line); len(f) == 6 {
				if _, err := strconv.Atoi(f[0]); err == nil {
					rows++
				}
			}
		}
		return summary, rows
	}
	one, rows1 := report("1")
	four, rows4 := report("4")
	if one != four {
		t.Errorf("summary differs across shard counts:\n--- 1 shard ---\n%s\n--- 4 shards ---\n%s", one, four)
	}
	if rows1 != 1 || rows4 != 4 {
		t.Errorf("per-shard rows = %d and %d, want 1 and 4", rows1, rows4)
	}
}

// TestTenantsCommand drives the multi-tenant scenario through the
// executable: flag validation, a parseable per-tenant SLO table, and
// cross-process byte-identity at a fixed seed.
func TestTenantsCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns full tenant scenarios")
	}
	t.Run("bad flags exit 2", func(t *testing.T) {
		t.Parallel()
		for _, args := range [][]string{
			{"tenants", "-tenants", "0"},
			{"tenants", "-fault", "1.5"},
			{"tenants", "-lease-us", "-1"},
		} {
			out, exit := run(t, args...)
			if exit != 2 {
				t.Fatalf("%v: exit = %d, want 2; output:\n%s", args, exit, out)
			}
			if !strings.Contains(out, "tenants:") {
				t.Fatalf("%v: output missing diagnostic:\n%s", args, out)
			}
		}
	})
	t.Run("reports summary and per-tenant SLO table", func(t *testing.T) {
		t.Parallel()
		out, exit := run(t, "tenants", "-tenants", "8", "-fault", "0.01")
		if exit != 0 {
			t.Fatalf("exit = %d, want 0; output:\n%s", exit, out)
		}
		for _, want := range []string{"== E18", "aa-quiet", "ab-noisy", "zz-late", "goodput/s"} {
			if !strings.Contains(out, want) {
				t.Fatalf("output missing %q:\n%s", want, out)
			}
		}
		// The per-tenant table must parse: every tenant row has the
		// header's column count, and the quiet tenant's row carries a
		// numeric completion count.
		lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
		var header []string
		rows := 0
		for _, line := range lines {
			f := strings.Fields(line)
			if len(f) > 0 && f[0] == "tenant" {
				header = f
				continue
			}
			if header == nil || len(f) == 0 || strings.HasPrefix(f[0], "-") {
				continue
			}
			rows++
			if len(f) != len(header) {
				t.Fatalf("row %q has %d fields, header has %d", line, len(f), len(header))
			}
			if f[0] == "aa-quiet" {
				if _, err := strconv.Atoi(f[7]); err != nil {
					t.Fatalf("quiet tenant ok column %q not numeric: %v", f[7], err)
				}
			}
		}
		if rows != 9 { // 8 arrivals + the late tenant
			t.Fatalf("per-tenant table has %d rows, want 9:\n%s", rows, out)
		}
	})
	t.Run("cross-process byte identity", func(t *testing.T) {
		t.Parallel()
		args := []string{"tenants", "-tenants", "10", "-lease-us", "2000", "-fault", "0.05", "-seed", "7"}
		a, exitA := run(t, args...)
		b, exitB := run(t, args...)
		if exitA != 0 || exitB != 0 {
			t.Fatalf("exits %d/%d, want 0", exitA, exitB)
		}
		if a != b {
			t.Fatalf("two identical invocations diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
		}
	})
}
