//go:build ignore

// Per-hop B+ tree step program in restricted Go, compiled by
// internal/ebpf/gofront at service start. It is the frontend twin of
// the hand-written StepProgram oracle in frontend_test.go: the
// differential tests hold the two to the same instruction shape, so
// edits here must stay in lockstep with the assembly (and vice versa).
//
// Array lengths are sized to the verified envelope, not the logical
// node capacity: the count guard admits count == 200 (leaf) and 150
// (internal), so after the unrolled search `lo` can statically reach
// one past the last logical slot, and after the equal-key bump the
// child index reaches count+1. The extra trailing slots keep every
// access inside the node page — exactly the byte arithmetic the
// hand-written program relies on.
package prog

// LeafNode mirrors internal/storage/bptree's leaf page layout.
type LeafNode struct {
	Kind  uint8
	Count uint16      `hyperion:"offset=2"`
	Next  uint64      `hyperion:"offset=8"`
	Keys  [201]uint64 `hyperion:"offset=24"`
	Vals  [201]uint64 `hyperion:"offset=1624"`
}

// Child is one internal-node child object id (Hi, Lo words).
type Child struct {
	Hi uint64
	Lo uint64
}

// IntNode mirrors the internal page layout.
type IntNode struct {
	Kind  uint8
	Count uint16      `hyperion:"offset=2"`
	Keys  [151]uint64 `hyperion:"offset=8"`
	Kids  [152]Child  `hyperion:"offset=1208"`
}

// Ctx is the per-hop context: request header then the raw node page.
// Leaf and Int overlay the same page bytes (offset 64) — the Kind
// byte picks the variant, like a C union.
type Ctx struct {
	Key    uint64
	Action uint8    `hyperion:"offset=8"`
	Value  uint64   `hyperion:"offset=16"`
	NextHi uint64   `hyperion:"offset=24"`
	NextLo uint64   `hyperion:"offset=32"`
	Leaf   LeafNode `hyperion:"offset=64"`
	Int    IntNode  `hyperion:"offset=64"`
	_      uint8    `hyperion:"offset=4159"`
}

// Actions (must match chase.Act*).
const (
	ActDescend  = 0
	ActFound    = 1
	ActNotFound = 2
	ActCorrupt  = 3
)

// Step binary-searches the node for ctx.Key and writes back either
// the found value or the next node to fetch. Loop-free by
// construction: the searches unroll to 8 straight-line rounds.
func Step(ctx *Ctx) uint64 {
	var lo, k uint64
	key := ctx.Key
	kind := ctx.Leaf.Kind
	hi := uint64(ctx.Leaf.Count)
	if kind == 1 {
		goto leaf
	}
	if kind == 2 {
		goto internal
	}
	ctx.Action = ActCorrupt
	return ActCorrupt

leaf:
	if hi > 200 {
		goto corrupt
	}
	lo = 0
	for r := 0; r < 8; r++ {
		if lo >= hi {
			continue
		}
		mid := (lo + hi) / 2
		k = ctx.Leaf.Keys[mid]
		if k >= key {
			goto higher
		}
		lo = mid + 1
		continue
	higher:
		hi = mid
	}
	hi = uint64(ctx.Leaf.Count)
	if lo >= hi {
		goto miss
	}
	k = ctx.Leaf.Keys[lo]
	if k != key {
		goto miss
	}
	ctx.Value = ctx.Leaf.Vals[lo]
	ctx.Action = ActFound
	return ActFound
miss:
	ctx.Action = ActNotFound
	return ActNotFound

internal:
	if hi > 150 {
		goto corrupt
	}
	lo = 0
	for r := 0; r < 8; r++ {
		if lo >= hi {
			continue
		}
		mid := (lo + hi) / 2
		k = ctx.Int.Keys[mid]
		if k >= key {
			goto higher
		}
		lo = mid + 1
		continue
	higher:
		hi = mid
	}
	hi = uint64(ctx.Int.Count)
	if lo >= hi {
		goto kid
	}
	k = ctx.Int.Keys[lo]
	if k != key {
		goto kid
	}
	lo += 1
kid:
	ctx.NextHi = ctx.Int.Kids[lo].Hi
	ctx.NextLo = ctx.Int.Kids[lo].Lo
	ctx.Action = ActDescend
	return ActDescend

corrupt:
	ctx.Action = ActCorrupt
	return ActCorrupt
}
