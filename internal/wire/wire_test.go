package wire

import (
	"encoding/binary"
	"testing"
)

// splitmix64 gives the tests a deterministic value stream without
// pulling in the sim package.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func TestEndianRoundTrip(t *testing.T) {
	state := uint64(42)
	for i := 0; i < 1000; i++ {
		v := splitmix64(&state)
		if got := PutBE64(v).Uint64(); got != v {
			t.Fatalf("BE64 round trip: got %#x want %#x", got, v)
		}
		if got := PutLE64(v).Uint64(); got != v {
			t.Fatalf("LE64 round trip: got %#x want %#x", got, v)
		}
		if got := PutBE32(uint32(v)).Uint32(); got != uint32(v) {
			t.Fatalf("BE32 round trip: got %#x want %#x", got, uint32(v))
		}
		if got := PutLE32(uint32(v)).Uint32(); got != uint32(v) {
			t.Fatalf("LE32 round trip: got %#x want %#x", got, uint32(v))
		}
		if got := PutBE16(uint16(v)).Uint16(); got != uint16(v) {
			t.Fatalf("BE16 round trip: got %#x want %#x", got, uint16(v))
		}
		if got := PutLE16(uint16(v)).Uint16(); got != uint16(v) {
			t.Fatalf("LE16 round trip: got %#x want %#x", got, uint16(v))
		}
	}
}

// TestEndianWireBytes pins the byte layout to encoding/binary's, so the
// unsafe and wiresafe builds are indistinguishable on the wire.
func TestEndianWireBytes(t *testing.T) {
	v := uint64(0x0102030405060708)
	var want [8]byte
	binary.BigEndian.PutUint64(want[:], v)
	if PutBE64(v) != BE64(want) {
		t.Fatalf("BE64 layout: got %x want %x", PutBE64(v), want)
	}
	binary.LittleEndian.PutUint64(want[:], v)
	if PutLE64(v) != LE64(want) {
		t.Fatalf("LE64 layout: got %x want %x", PutLE64(v), want)
	}
	var w4 [4]byte
	binary.BigEndian.PutUint32(w4[:], uint32(v))
	if PutBE32(uint32(v)) != BE32(w4) {
		t.Fatalf("BE32 layout: got %x want %x", PutBE32(uint32(v)), w4)
	}
	var w2 [2]byte
	binary.LittleEndian.PutUint16(w2[:], uint16(v))
	if PutLE16(uint16(v)) != LE16(w2) {
		t.Fatalf("LE16 layout: got %x want %x", PutLE16(uint16(v)), w2)
	}
}

func TestOffsetAccessors(t *testing.T) {
	b := make([]byte, 64)
	PutBE64At(b, 8, 0xdeadbeefcafef00d)
	PutLE64At(b, 16, 0xdeadbeefcafef00d)
	PutBE32At(b, 24, 0x01020304)
	PutLE32At(b, 28, 0x01020304)
	PutBE16At(b, 32, 0xabcd)
	PutLE16At(b, 34, 0xabcd)
	if got := BE64At(b, 8); got != 0xdeadbeefcafef00d {
		t.Fatalf("BE64At: %#x", got)
	}
	if got := LE64At(b, 16); got != 0xdeadbeefcafef00d {
		t.Fatalf("LE64At: %#x", got)
	}
	if got := BE32At(b, 24); got != 0x01020304 {
		t.Fatalf("BE32At: %#x", got)
	}
	if got := LE32At(b, 28); got != 0x01020304 {
		t.Fatalf("LE32At: %#x", got)
	}
	if got := BE16At(b, 32); got != 0xabcd {
		t.Fatalf("BE16At: %#x", got)
	}
	if got := LE16At(b, 34); got != 0xabcd {
		t.Fatalf("LE16At: %#x", got)
	}
	if got := binary.BigEndian.Uint64(b[8:]); got != 0xdeadbeefcafef00d {
		t.Fatalf("BE64At wire bytes: %#x", got)
	}
	if got := binary.LittleEndian.Uint64(b[16:]); got != 0xdeadbeefcafef00d {
		t.Fatalf("LE64At wire bytes: %#x", got)
	}
}

func TestOffsetAccessorBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BE64At past the end did not panic")
		}
	}()
	b := make([]byte, 10)
	BE64At(b, 4) // only 6 bytes remain
}

func TestPoolRefcount(t *testing.T) {
	p := NewPool(64)
	b := p.Get(16)
	if b.Refs() != 1 || b.Len() != 16 {
		t.Fatalf("fresh Buf: refs=%d len=%d", b.Refs(), b.Len())
	}
	b.Retain()
	b.Release()
	if p.Free() != 0 {
		t.Fatal("Buf returned to pool while still referenced")
	}
	b.Release()
	if p.Free() != 1 {
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

func TestEndianDecodeAllocFree(t *testing.T) {
	b := make([]byte, 64)
	PutBE64At(b, 0, 123456789)
	var sink uint64
	allocs := testing.AllocsPerRun(1000, func() {
		sink += BE64At(b, 0) + LE64At(b, 8) + uint64(BE32At(b, 16))
	})
	if allocs != 0 {
		t.Fatalf("endian decode allocates %v per op, want 0", allocs)
	}
	_ = sink
}
