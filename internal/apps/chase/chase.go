// Package chase implements §2.4's latency-sensitive pointer-chasing
// workload over a disaggregated B+ tree, both ways the paper contrasts:
// client-side traversal that pays one network round trip per tree level,
// and DPU-side traversal offloaded as a verified per-hop eBPF program
// (XRP-style), which costs a single round trip regardless of depth.
package chase

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hyperion/internal/core"
	"hyperion/internal/ehdl"
	"hyperion/internal/netsim"
	"hyperion/internal/rpc"
	"hyperion/internal/seg"
	"hyperion/internal/storage/bptree"
	"hyperion/internal/telemetry"
	"hyperion/internal/wire"
)

// RPC method names.
const (
	MethodMeta = "chase.meta"
	MethodNode = "chase.node"
	MethodGet  = "chase.get"
)

// Meta describes the served tree to clients.
type Meta struct {
	RootHi, RootLo uint64
	Height         int
}

// NodeArgs requests one raw node page.
type NodeArgs struct {
	Hi, Lo uint64
}

// GetArgs requests a full offloaded lookup.
type GetArgs struct {
	Key uint64
}

// GetReply is the offloaded lookup result.
type GetReply struct {
	Found bool
	Value uint64
	Hops  int
}

// maxDepth bounds the runtime resubmission loop.
const maxDepth = 16

// Errors.
var (
	ErrCorrupt = errors.New("chase: per-hop program reported corrupt node")
	ErrTooDeep = errors.New("chase: traversal exceeded depth bound")
)

// Service serves a B+ tree over RPC from a DPU.
type Service struct {
	dpu  *core.DPU
	tree *bptree.Tree
	pipe *ehdl.Pipeline
	// Per-service scratch for the offloaded loop: node page reads and
	// the per-hop program context (handlers run to completion, so one of
	// each suffices).
	pageBuf []byte
	ctx     []byte
	// Node pages served to client-side walks: pooled buffers the reply
	// carries, released by the client once the page is decoded.
	pages *wire.Pool

	OffloadGets, NodeFetches int64
}

// Compile builds the per-hop program into a verified eHDL image
// authorized by authTag. Compile once per run; each NewService runs its
// own instance of the image.
func Compile(authTag string) (*ehdl.Image, error) {
	prog, img, err := ehdl.CompileSource(stepFile, stepSource, nil, authTag)
	if err != nil {
		return nil, fmt.Errorf("chase: compiling step program: %w", err)
	}
	if err := checkCtxSize(prog); err != nil {
		return nil, err
	}
	return img, nil
}

// NewService registers the chase methods on the DPU's control server
// (data-plane RPC uses the same machinery), running the per-hop
// program as an instance of img (see Compile).
func NewService(d *core.DPU, srv *rpc.Server, tree *bptree.Tree, img *ehdl.Image) *Service {
	pipe := img.Instance("chase-step")
	s := &Service{dpu: d, tree: tree, pipe: pipe, pages: wire.NewPool(bptree.NodeBytes)}

	srv.Handle(MethodMeta, func(arg any, respond func(any, int, error)) {
		root := tree.Root()
		respond(Meta{RootHi: root.Hi, RootLo: root.Lo, Height: tree.Height()}, 64, nil)
	})
	srv.Handle(MethodNode, func(arg any, respond func(any, int, error)) {
		na, ok := arg.(NodeArgs)
		if !ok {
			respond(nil, 0, fmt.Errorf("chase: bad node args %T", arg))
			return
		}
		s.NodeFetches++
		page := s.pages.Get(bptree.NodeBytes)
		if _, err := d.View.ReadAtBuf(seg.ObjectID{Hi: na.Hi, Lo: na.Lo}, 0, bptree.NodeBytes, page.Bytes()); err != nil {
			page.Release()
			respond(nil, 0, err)
			return
		}
		// The storage cost accrued on the view becomes response delay.
		cost := d.View.TakeCost()
		d.Eng.After(cost, "chase.node", func() {
			respond(page, page.Len()+64, nil)
		})
	})
	srv.Handle(MethodGet, func(arg any, respond func(any, int, error)) {
		ga, ok := arg.(GetArgs)
		if !ok {
			respond(nil, 0, fmt.Errorf("chase: bad get args %T", arg))
			return
		}
		s.OffloadGets++
		reply, err := s.offloadedGet(ga.Key)
		cost := d.View.TakeCost()
		d.Eng.After(cost, "chase.get", func() {
			if err != nil {
				respond(nil, 0, err)
				return
			}
			respond(reply, 64, nil)
		})
	})
	return s
}

// offloadedGet runs the XRP-style loop: fetch node, run the verified
// per-hop program, follow its verdict. Storage cost accrues on the
// DPU's view; the per-hop pipeline latency is charged explicitly.
func (s *Service) offloadedGet(key uint64) (GetReply, error) {
	if s.ctx == nil {
		s.ctx = make([]byte, CtxBytes)
	}
	ctx := s.ctx
	cur := s.tree.Root()
	for hop := 1; hop <= maxDepth; hop++ {
		page, err := s.dpu.View.ReadAtBuf(cur, 0, bptree.NodeBytes, s.pageBuf)
		if err != nil {
			return GetReply{}, err
		}
		s.pageBuf = page
		binary.LittleEndian.PutUint64(ctx[CtxKey:], key)
		// The key and the full node image are rewritten below; the
		// program-written scratch fields in between must read as zero
		// each hop, exactly as a fresh context would.
		clear(ctx[CtxAction:CtxNode])
		copy(ctx[CtxNode:], page)
		ret, err := s.pipe.Run(ctx)
		if err != nil {
			return GetReply{}, err
		}
		// Charge the pipeline's hardware latency per hop.
		s.dpu.View.Charge(s.dpu.Fabric.Cycles(int64(s.pipe.Stats.Depth)))
		switch ret {
		case ActFound:
			return GetReply{Found: true, Value: binary.LittleEndian.Uint64(ctx[CtxValue:]), Hops: hop}, nil
		case ActNotFound:
			return GetReply{Found: false, Hops: hop}, nil
		case ActDescend:
			cur = seg.ObjectID{
				Hi: binary.LittleEndian.Uint64(ctx[CtxNextHi:]),
				Lo: binary.LittleEndian.Uint64(ctx[CtxNextLo:]),
			}
		default:
			return GetReply{}, ErrCorrupt
		}
	}
	return GetReply{}, ErrTooDeep
}

// Client drives traversals from a remote host.
type Client struct {
	c    *rpc.Client
	addr netsim.Addr

	// Span is the trace context stamped on subsequent lookups (0 =
	// untagged). Harnesses set it per operation when tracing is armed.
	Span telemetry.RequestID

	RTTs int64 // network round trips issued
}

// NewClient builds a chase client.
func NewClient(c *rpc.Client, addr netsim.Addr) *Client {
	return &Client{c: c, addr: addr}
}

// OffloadGet performs the one-round-trip offloaded lookup.
func (cl *Client) OffloadGet(key uint64, cb func(GetReply, error)) {
	cl.RTTs++
	cl.c.CallSpan(cl.addr, MethodGet, GetArgs{Key: key}, 64, cl.Span, func(val any, err error) {
		if err != nil {
			cb(GetReply{}, err)
			return
		}
		cb(val.(GetReply), nil)
	})
}

// ClientSideGet walks the tree from the client, paying one round trip
// per level: fetch meta (cached), then fetch and parse each node.
func (cl *Client) ClientSideGet(key uint64, cb func(GetReply, error)) {
	cl.RTTs++
	cl.c.CallSpan(cl.addr, MethodMeta, nil, 64, cl.Span, func(val any, err error) {
		if err != nil {
			cb(GetReply{}, err)
			return
		}
		meta := val.(Meta)
		cl.walk(seg.ObjectID{Hi: meta.RootHi, Lo: meta.RootLo}, key, 1, cb)
	})
}

func (cl *Client) walk(cur seg.ObjectID, key uint64, hop int, cb func(GetReply, error)) {
	if hop > maxDepth {
		cb(GetReply{}, ErrTooDeep)
		return
	}
	cl.RTTs++
	cl.c.CallSpan(cl.addr, MethodNode, NodeArgs{Hi: cur.Hi, Lo: cur.Lo}, 64, cl.Span, func(val any, err error) {
		if err != nil {
			cb(GetReply{}, err)
			return
		}
		page := val.(*wire.Buf)
		next, v, leaf, found, derr := bptree.Step(page.Bytes(), key)
		page.Release() // Step kept nothing of the page
		switch {
		case derr != nil:
			cb(GetReply{}, derr)
		case leaf:
			cb(GetReply{Found: found, Value: v, Hops: hop}, nil)
		default:
			cl.walk(next, key, hop+1, cb)
		}
	})
}
