package wire

import "testing"

// splitmix64 gives the tests a deterministic value stream without
// pulling in the sim package.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func TestPoolRefcount(t *testing.T) {
	p := NewPool(64)
	b := p.Get(16)
	if b.refs != 1 || b.Len() != 16 {
		t.Fatalf("fresh Buf: refs=%d len=%d", b.refs, b.Len())
	}
	b.Retain()
	b.Release()
	if len(p.free) != 0 {
		t.Fatal("Buf returned to pool while still referenced")
	}
	b.Release()
	if len(p.free) != 1 {
		t.Fatal("last Release did not return Buf to pool")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double Release did not panic")
			}
		}()
		b.Release()
	}()
}

// TestPoolAliasing is the release-then-reacquire property test: after a
// Buf cycles through the pool, no reacquired Buf may observe stale
// payload bytes, at any requested size relative to the old capacity.
func TestPoolAliasing(t *testing.T) {
	p := NewPool(32)
	state := uint64(7)
	for round := 0; round < 200; round++ {
		n := int(splitmix64(&state)%128) + 1
		b := p.Get(n)
		for i := range b.Bytes() {
			b.Bytes()[i] = byte(splitmix64(&state))
		}
		b.Release()
		m := int(splitmix64(&state)%128) + 1
		nb := p.Get(m)
		for i, c := range nb.Bytes() {
			if c != 0 {
				t.Fatalf("round %d: reacquired Buf (len %d after len %d) has stale byte %#x at %d", round, m, n, c, i)
			}
		}
		nb.Release()
	}
}

// TestPoolAllocFree pins the steady-state cost of the pool: a warm
// Get/Release cycle must not allocate.
func TestPoolAllocFree(t *testing.T) {
	p := NewPool(4096)
	p.Get(4096).Release() // warm the free list
	allocs := testing.AllocsPerRun(1000, func() {
		b := p.Get(4096)
		b.Bytes()[0] = 1
		b.Release()
	})
	if allocs != 0 {
		t.Fatalf("warm Get/Release allocates %v per op, want 0", allocs)
	}
}
