package bench

import (
	"runtime"
	"strings"
	"testing"

	"hyperion/internal/apps/fail2ban"
)

// TestTenantsAllocBudget: one E18 run allocates at most 9 000 objects
// and compiles the fail2ban filter once, however many filter tenants
// its cells build (54 at the default seed). A compile
// (gofront, verify, optimize, verify, estimate) is ≈ 750 objects, so a
// compile per tenant or per cell breaks the budget by itself, and a
// second compile per run shows as twice the objects a lone compile
// allocates under fail2ban.Compile.
func TestTenantsAllocBudget(t *testing.T) {
	const maxObjects = 9_000
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1 // record every allocation with its stack

	one := compilerAllocs(func() {
		if _, err := fail2ban.Compile(tenantAuthTag, 3); err != nil {
			t.Fatal(err)
		}
	})
	var m0, m1 runtime.MemStats
	compiles := compilerAllocs(func() {
		runtime.ReadMemStats(&m0)
		Tenants(DefaultSeed)
		runtime.ReadMemStats(&m1)
	})
	objects := m1.Mallocs - m0.Mallocs
	t.Logf("E18: %d objects, %d B; %d objects under fail2ban.Compile (%d for one compile)",
		objects, m1.TotalAlloc-m0.TotalAlloc, compiles, one)
	if objects > maxObjects {
		t.Errorf("E18 allocates %d objects per run, budget %d", objects, maxObjects)
	}
	if one == 0 || compiles < one/2 || compiles > one+one/2 {
		t.Errorf("E18 allocates %d objects under fail2ban.Compile, one compile %d: want exactly one compile per run",
			compiles, one)
	}
}

// compilerAllocs runs f and returns how many objects it allocated with
// fail2ban.Compile on the stack, read from the heap profile (which the
// caller has set to record every allocation).
func compilerAllocs(f func()) int64 {
	count := func() int64 {
		runtime.GC()
		runtime.GC() // the profile publishes allocations a cycle late
		var recs []runtime.MemProfileRecord
		n, _ := runtime.MemProfile(nil, true)
		for {
			recs = make([]runtime.MemProfileRecord, n+64)
			var ok bool
			if n, ok = runtime.MemProfile(recs, true); ok {
				recs = recs[:n]
				break
			}
		}
		var total int64
		for _, r := range recs {
			frames := runtime.CallersFrames(r.Stack())
			for {
				fr, more := frames.Next()
				if strings.HasSuffix(fr.Function, "/fail2ban.Compile") {
					total += r.AllocObjects
					break
				}
				if !more {
					break
				}
			}
		}
		return total
	}
	before := count()
	f()
	return count() - before
}
