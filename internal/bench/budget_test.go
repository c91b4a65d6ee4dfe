package bench

import (
	"fmt"
	"runtime"
	"testing"
)

// raceObjects is what a -race build may add to a run's object count.
var raceObjects float64

// budget is what one run of an experiment may allocate.
type budget struct {
	id              string
	objects, mbytes float64
}

// checkBudgets measures each experiment on a second run (the first
// warms process-wide caches).
func checkBudgets(t *testing.T, budgets []budget) {
	t.Helper()
	for _, tc := range budgets {
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

// TestDatapathAllocBudgets pins what one run of three datapath
// experiments allocates. E7 loads three DRAM-resident B+ trees and walks
// them over rpc: DRAM materializes by the 64 KiB page, node pages
// travel in pooled buffers and the client-side walk steps through each
// page in place, so a DRAM backing that allocates by a larger chunk, a
// per-response copy or a decode per hop breaks the budget. E16's
// NVMe-oF reads and cluster gets return 4 KiB payloads in pooled
// buffers, its keys are formatted into a reused buffer, and a node's
// get and put answers wait in pooled contexts. E14 drives its target
// through nvmeof.Initiator, whose capsules recycle.
//
// The budgets hold for a plain build. A -race build drops a random
// quarter of sync.Pool Puts, so some of fmt's printers are allocated
// anew: raceObjects (race_test.go) allows for E14's tables, about 20.
func TestDatapathAllocBudgets(t *testing.T) {
	checkBudgets(t, []budget{
		{"E7", 7_100, 5.2},
		{"E16", 12_000, 15},
		{"E14", 950, 1},
	})
}

// TestStorageAllocBudgets pins what one run of four storage
// experiments allocates. E6's 4 672 segment descriptors are carved from
// the store's slab and cached by a field on each, so a descriptor or a
// cache entry allocated on its own breaks the budget. E9's hot flow
// table deletes without tombstones, so it never rehashes. E12 writes
// its 1.6 MB table through one reused group batch onto one image and
// scans it through one reused buffer and batch; a per-group batch, a
// map per column or a copy per group breaks the budget. E13's YCSB keys
// and values live in the generator's and the load loop's buffers, not
// one allocation per op.
func TestStorageAllocBudgets(t *testing.T) {
	checkBudgets(t, []budget{
		{"E6", 500, 1.3},
		{"E9", 1_450, 4},
		{"E12", 750, 8},
		{"E13", 2_000, 6.5},
	})
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
