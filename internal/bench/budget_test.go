package bench

import (
	"fmt"
	"runtime"
	"testing"
)

// raceObjects is what a -race build may add to a run's object count.
var raceObjects float64

// TestDatapathAllocBudgets pins what one run of three datapath
// experiments allocates, measured on a second run (the first warms
// process-wide caches). E7 loads three DRAM-resident B+ trees and walks
// them over rpc: DRAM materializes by the 64 KiB page, node pages
// travel in pooled buffers and the client-side walk steps through each
// page in place, so a DRAM backing that allocates by a larger chunk, a
// per-response copy or a decode per hop breaks the budget. E16's
// NVMe-oF reads and cluster gets return 4 KiB payloads in pooled
// buffers, and its keys are formatted into a reused buffer. E14 drives
// its target through nvmeof.Initiator, whose capsules recycle.
//
// The budgets hold for a plain build. A -race build drops a random
// quarter of sync.Pool Puts, so some of fmt's printers are allocated
// anew: raceObjects (race_test.go) allows for E14's tables, about 20.
func TestDatapathAllocBudgets(t *testing.T) {
	for _, tc := range []struct {
		id              string
		objects, mbytes float64
	}{
		{"E7", 7_100, 5.2},
		{"E16", 15_500, 15},
		{"E14", 950, 1},
	} {
		e, _ := ByName(tc.id)
		e.Run()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		e.Run()
		runtime.ReadMemStats(&m1)
		objects, mbytes := float64(m1.Mallocs-m0.Mallocs), float64(m1.TotalAlloc-m0.TotalAlloc)/1e6
		t.Logf("%s: %.0f objects, %.2f MB per run", tc.id, objects, mbytes)
		if objects > tc.objects+raceObjects || mbytes > tc.mbytes {
			t.Errorf("%s allocates %.0f objects and %.2f MB per run, budget %.0f and %.1f",
				tc.id, objects, mbytes, tc.objects+raceObjects, tc.mbytes)
		}
	}
}

// TestAppendKeyMatchesSprintf: X1 and E16 format their keys without fmt.
func TestAppendKeyMatchesSprintf(t *testing.T) {
	var buf []byte
	for _, i := range []int{0, 7, 10, 99, 100, 999, 1000, 4321, 9999, 10000, 123456} {
		buf = appendKey(buf[:0], i)
		if want := fmt.Sprintf("key-%04d", i); string(buf) != want {
			t.Errorf("appendKey(%d) = %q, want %q", i, buf, want)
		}
	}
}
