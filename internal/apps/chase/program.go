package chase

// Per-hop eBPF program, XRP-style (Zhong et al., OSDI'22, cited by the
// paper): the DPU runtime fetches a B+ tree node and hands it to this
// verified program, which binary-searches the node and writes back
// either the found value or the object id of the next node to fetch.
// The fetch loop lives in the runtime; the program itself is loop-free
// (binary search unrolls to ⌈log2(fanout)⌉ straight-line rounds), which
// is exactly what the verifier and the eHDL pipeline compiler require.
//
// Context layout (written by the runtime, partially rewritten by the
// program):
//
//	[0:8)    search key
//	[8]      action out: 0 descend, 1 found, 2 not found, 3 corrupt
//	[16:24)  result value out
//	[24:32)  next node id Hi out
//	[32:40)  next node id Lo out
//	[64:...) raw node page (bptree layout)
//
// Node page layout (see internal/storage/bptree):
//
//	[0]      kind (1 leaf, 2 internal)
//	[2:4)    key count
//	leaf:    next id at 8, keys at 24, values at 24+200*8
//	internal: keys at 8, children (16 B each) at 8+150*8
//
// bptree's exported offset constants are the authority; step_prog.go's
// struct tags spell the same numbers out because its source is compiled
// standalone (TestFrontendShapeMatchesHandAssembly holds the two together).

import "hyperion/internal/storage/bptree"

// Context offsets.
const (
	CtxKey    = 0
	CtxAction = 8
	CtxValue  = 16
	CtxNextHi = 24
	CtxNextLo = 32
	CtxNode   = 64
	CtxBytes  = CtxNode + bptree.NodeBytes
)

// Actions.
const (
	ActDescend  = 0
	ActFound    = 1
	ActNotFound = 2
	ActCorrupt  = 3
)

// Node layout within the context: bptree's image offsets behind the
// request header.
const (
	nodeKindOff  = CtxNode + bptree.KindOff
	nodeCountOff = CtxNode + bptree.CountOff
	leafKeysOff  = CtxNode + bptree.LeafKeysOff
	leafValsOff  = CtxNode + bptree.LeafValsOff
	intKeysOff   = CtxNode + bptree.IntKeysOff
	intKidsOff   = CtxNode + bptree.IntKidsOff
)
