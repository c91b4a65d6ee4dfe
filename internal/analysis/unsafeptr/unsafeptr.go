// Package unsafeptr bans package unsafe from non-test code. Every
// byte-order access goes through encoding/binary, so Hyperion has no
// place that trades memory safety for speed, and an unsafe.Pointer
// anywhere is a latent correctness bug the determinism contract cannot
// see. Any non-test import of unsafe, in any layer, is flagged.
// Code with a proven need can annotate the import with
// //hyperlint:allow(unsafeptr) and a justification.
package unsafeptr

import (
	"strings"

	"hyperion/internal/analysis"
)

// Analyzer is the unsafeptr pass.
var Analyzer = &analysis.Analyzer{
	Name: "unsafeptr",
	Doc:  "flags imports of unsafe in non-test code",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.NonTestFiles() {
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) != "unsafe" {
				continue
			}
			pass.Reportf(imp.Pos(),
				"unsafe is banned outside tests: decode with encoding/binary instead")
		}
	}
	return nil
}
