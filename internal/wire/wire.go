// Package wire is Hyperion's zero-copy buffer plane: pooled,
// refcounted byte buffers (Buf) and fixed-array big-/little-endian
// field types for wire-format encode/decode.
//
// The paper's thesis is that a CPU-free datapath wins by eliminating
// copies and per-request CPU touches; the simulator's own hot path
// follows the same discipline. Frames, fragments, RPC envelopes and
// NVMe-oF capsules carry a *Buf owned by a free-list pool instead of
// per-hop []byte copies, and headers are decoded in place with the
// fixed-array types below.
//
// # Ownership
//
// A Buf is born from Pool.Get with one reference, owned by the caller.
// Handing a Buf to another layer transfers that reference unless the
// API says otherwise; a layer that wants to keep the bytes past the
// hand-off must Retain before passing it on and Release when done.
// Release of the last reference returns the Buf to its pool; the pool
// zeroes payload bytes on reuse so a stale reference can never observe
// another message's data. See DESIGN.md §10 for the per-layer rules.
//
// Pools are plain LIFO free lists — deliberately not sync.Pool, whose
// emptying is scheduler- and GC-dependent and would make model-code
// allocation behaviour nondeterministic.
//
// # Endianness
//
// The BE*/LE* types decode with a single unsafe load (plus a register
// byte swap for BE) on little-endian hosts. Build with -tags wiresafe
// for a portable encoding/binary fallback; without it, package init
// refuses to run on a big-endian host rather than decode garbage.
package wire

// Buf is a pooled, refcounted byte buffer. The zero value is not
// usable; obtain Bufs from a Pool.
type Buf struct {
	b    []byte
	refs int32
	pool *Pool
}

// Bytes returns the buffer's contents. The slice is valid until the
// last reference is released; callers must not retain it past Release.
func (b *Buf) Bytes() []byte { return b.b }

// Len returns the current length.
func (b *Buf) Len() int { return len(b.b) }

// Retain adds a reference and returns b for chaining. The extra
// reference is the caller's to discharge.
//
//wire:owns
func (b *Buf) Retain() *Buf {
	if b.refs <= 0 {
		panic("wire: Retain on released Buf")
	}
	b.refs++
	return b
}

// Refs returns the current reference count (for tests and invariants).
func (b *Buf) Refs() int { return int(b.refs) }

// Release drops one reference; the last release returns the Buf to its
// pool. Releasing more times than retained panics — a double release
// is always an ownership bug.
func (b *Buf) Release() {
	if b.refs <= 0 {
		panic("wire: Release of already-released Buf")
	}
	b.refs--
	if b.refs == 0 {
		b.pool.put(b)
	}
}

// Pool is a deterministic free-list pool of Bufs. Not safe for
// concurrent use — the simulator is single-threaded by construction.
type Pool struct {
	free []*Buf
	cap  int // initial capacity of newly minted Bufs

	Gets, News int64 // Gets counts all Get calls; News the pool misses
}

// NewPool creates a pool whose fresh Bufs start with bufCap capacity.
func NewPool(bufCap int) *Pool {
	if bufCap <= 0 {
		bufCap = 64
	}
	return &Pool{cap: bufCap}
}

// Get returns a Buf of length n with one reference. Its bytes are
// zero, whether fresh or recycled, so no caller can observe a previous
// message's payload.
//
//wire:owns
func (p *Pool) Get(n int) *Buf {
	p.Gets++
	if len(p.free) == 0 {
		p.News++
		c := p.cap
		if c < n {
			c = n
		}
		return &Buf{b: make([]byte, n, c), refs: 1, pool: p}
	}
	b := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	b.refs = 1
	if cap(b.b) < n {
		b.b = make([]byte, n)
		return b
	}
	b.b = b.b[:n]
	clear(b.b)
	return b
}

// Free returns the number of Bufs currently on the free list.
func (p *Pool) Free() int { return len(p.free) }

func (p *Pool) put(b *Buf) {
	b.b = b.b[:cap(b.b)] // keep capacity; Get re-trims and zeroes
	p.free = append(p.free, b)
}
