// Package unsafeptr_harness is hyperlint golden-test input: the unsafe
// ban covers harness-layer code too — benchmarks must not sidestep
// encoding/binary either.
package unsafeptr_harness

import "unsafe" // want `unsafe is banned outside tests`

func addrOf(p *int) uintptr { return uintptr(unsafe.Pointer(p)) }
