package checkers

import (
	"go/build"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hyperion/internal/analysis"
)

// TestGatesBiteOnRealCode shows each gate catching the regression it
// exists for in the model code it guards, not only in synthetic
// testdata: a real package's files are copied aside, one line is
// mutated, and the copy is loaded under the package's own import path
// through the loader the vettool uses. The named analyzer must report
// exactly one finding on the mutated copy and none on the faithful one.
// A row whose line no longer exists fails loudly, so the proof cannot
// rot into a pass. Every analyzer has a row; a check, or a sub-rule of
// one, for which no mutation of real code can be written is a candidate
// for deletion (//wire:takes and //wire:borrows went that way). A
// check's second row runs as <check>#01.
func TestGatesBiteOnRealCode(t *testing.T) {
	rows := []struct {
		check, pkg, file string
		// The first occurrence of line after anchor becomes repl.
		anchor, line, repl string
		want               string // substring of the finding
	}{
		{
			check: "eventref", pkg: "internal/nvme", file: "nvme.go",
			anchor: "func (c *cmdCtx) swallow() {", line: "\tc.timer = sim.NoEvent\n",
			want: "EventRef field timer unreset",
		},
		{
			check: "bufown", pkg: "internal/rack", file: "rack.go",
			anchor: "func (b *box) reply(", line: "\tbuf.Release()\n",
			want: "not released",
		},
		{
			// Deleting the End outright leaves sp unused, which the
			// compiler already refuses; ending on one branch only is
			// the form of this regression that builds.
			check: "spanpair", pkg: "internal/fabric", file: "stream.go",
			anchor: `sp := s.rec.Begin("stream"`, line: "\t\t\tsp.End(s.eng.Now())\n",
			repl: "\t\t\tif it.Bytes > 0 { sp.End(s.eng.Now()) }\n",
			want: "not ended on every path",
		},
		{
			// sendCtrl takes the header back when the NIC refuses it;
			// encodeCtrl's //wire:owns is what makes that checkable.
			check: "bufown", pkg: "internal/transport", file: "reliable.go",
			anchor: "func (r *reliableEndpoint) sendCtrl(", line: "\t\thdr.Release()\n",
			want: "not released",
		},
		{
			// Calling the visitor straight from the map range, instead
			// of collecting the keys and sorting them first.
			check: "maprange", pkg: "internal/ebpf", file: "maps.go",
			anchor: "func (h *HashMap) Iterate(", line: "\t\tkeys = append(keys, k)\n",
			repl: "\t\tfn([]byte(k), h.m[k])\n",
			want: "order-sensitive (call",
		},
		{
			check: "nodeterm", pkg: "internal/transport", file: "reliable.go",
			anchor: "func (r *reliableEndpoint) onAck(", line: "\tr.pump(c)\n",
			repl: "\tgo r.pump(c)\n",
			want: "starts a goroutine",
		},
		{
			check: "simtime", pkg: "internal/transport", file: "transport.go",
			anchor: "func New(", line: "200 * sim.Microsecond,\n",
			repl: "200000000,\n",
			want: "raw literal 200000000 has type sim.Duration",
		},
		{
			check: "sharedstate", pkg: "internal/transport", file: "transport.go",
			anchor: "func New(", line: "\tswitch kind {\n",
			repl: "\tErrTooLarge = nil\n\tswitch kind {\n",
			want: "package-level var ErrTooLarge is mutated",
		},
		{
			check: "unsafeptr", pkg: "internal/nvme", file: "nvme.go",
			anchor: "import (", line: "\t\"errors\"\n",
			repl: "\t\"errors\"\n\t_ \"unsafe\"\n",
			want: "unsafe is confined to internal/wire",
		},
	}
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader(root)
	for _, row := range rows {
		t.Run(row.check, func(t *testing.T) {
			as, err := Select([]string{row.check})
			if err != nil {
				t.Fatal(err)
			}
			src := filepath.Join(root, row.pkg)
			bp, err := build.ImportDir(src, 0)
			if err != nil {
				t.Fatal(err)
			}
			findings := func(mutate bool) []analysis.Finding {
				dir := t.TempDir()
				for _, name := range bp.GoFiles {
					b, err := os.ReadFile(filepath.Join(src, name))
					if err != nil {
						t.Fatal(err)
					}
					if mutate && name == row.file {
						head, tail, okAnchor := strings.Cut(string(b), row.anchor)
						body, rest, okLine := strings.Cut(tail, row.line)
						if !okAnchor || !okLine {
							t.Fatalf("%s/%s no longer holds %q after %q", row.pkg, row.file, row.line, row.anchor)
						}
						b = []byte(head + row.anchor + body + row.repl + rest)
					}
					if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				pkg, err := loader.LoadDir(dir, analysis.ModulePath+"/"+row.pkg)
				if err != nil {
					t.Fatal(err)
				}
				fs, err := analysis.RunAnalyzers(pkg, as)
				if err != nil {
					t.Fatal(err)
				}
				return fs
			}
			if fs := findings(false); len(fs) != 0 {
				t.Fatalf("unmutated %s: %v", row.pkg, fs)
			}
			fs := findings(true)
			if len(fs) != 1 || fs[0].Check != row.check || !strings.Contains(fs[0].Message, row.want) ||
				filepath.Base(fs[0].Position.Filename) != row.file {
				t.Fatalf("mutated %s/%s: want exactly one %s finding containing %q, got %v",
					row.pkg, row.file, row.check, row.want, fs)
			}
		})
	}
}
