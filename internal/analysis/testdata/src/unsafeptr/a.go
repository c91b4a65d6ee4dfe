// Package unsafeptr is hyperlint golden-test input: model-layer code
// importing unsafe is flagged.
package unsafeptr

import "unsafe" // want `unsafe is banned outside tests`

func addrOf(p *int) uintptr { return uintptr(unsafe.Pointer(p)) }
