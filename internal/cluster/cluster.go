// Package cluster explores the paper's §4 question — "how should one
// build CPU-free distributed applications ... over multiple DPUs?" — in
// the C1/C2 styles of §2.4: a rack of self-hosting Hyperion DPUs, each
// serving a KV shard from its own SSDs, with MICA-style client-driven
// request routing (the client hashes the key to the owning DPU; no
// coordinator in the path) and R-way replication for fault tolerance.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hyperion/internal/core"
	"hyperion/internal/fault"
	"hyperion/internal/netsim"
	"hyperion/internal/rpc"
	"hyperion/internal/seg"
	"hyperion/internal/sim"
	"hyperion/internal/storage/kvssd"
	"hyperion/internal/telemetry"
	"hyperion/internal/transport"
	"hyperion/internal/wire"
)

// KV method names served by every DPU.
const (
	MethodGet = "ckv.get"
	MethodPut = "ckv.put"
)

// Wire capsules: a get capsule is the raw key; a put capsule is a
// big-endian key length followed by key then value. Capsules are
// pooled wire.Bufs refcounted per rpc attempt, so a router can issue
// replicated writes and read failovers from one encoding.
const (
	putKeyLenOff = 0
	putKeyOff    = 4
)

func encodePut(p *wire.Pool, key, value []byte) *wire.Buf {
	b := p.Get(putKeyOff + len(key) + len(value))
	bs := b.Bytes()
	binary.BigEndian.PutUint32(bs[putKeyLenOff:], uint32(len(key)))
	copy(bs[putKeyOff:], key)
	copy(bs[putKeyOff+len(key):], value)
	return b
}

// decodePut returns views that alias the capsule; they are valid only
// while the capsule reference is held. A capsule shorter than its key
// length field, or than the key that field claims, is errBadPut.
func decodePut(bs []byte) (key, value []byte, err error) {
	if len(bs) < putKeyOff {
		return nil, nil, errBadPut
	}
	klen := binary.BigEndian.Uint32(bs[putKeyLenOff:])
	if uint64(klen) > uint64(len(bs)-putKeyOff) {
		return nil, nil, errBadPut
	}
	bs = bs[putKeyOff:]
	return bs[:klen], bs[klen:], nil
}

// Errors.
var (
	ErrNoReplicas = errors.New("cluster: all replicas down")
	ErrNotFound   = errors.New("cluster: key not found")
	errBadPut     = errors.New("cluster: bad put capsule")
)

// Node is one DPU serving a shard.
type Node struct {
	DPU  *core.DPU
	KV   *kvssd.KV
	down bool

	replies    sim.FreeList[reply]
	gets, puts sim.Lane[reply, *reply] // answers waiting out their storage time

	Gets, Puts int64
}

// Cluster is a set of KV-serving DPUs on one fabric.
type Cluster struct {
	Eng   *sim.Engine
	Net   *netsim.Network
	Nodes []*Node
	// Replicas is the copies kept per key (including the primary).
	Replicas int

	crashes sim.Lane[toggle, *toggle] // ScheduleCrashes' down/up toggles
}

// New boots n DPUs, each with a durable B+-tree-indexed KV shard, and
// registers the KV service on their control planes.
func New(eng *sim.Engine, net *netsim.Network, n, replicas int) (*Cluster, error) {
	if replicas < 1 || replicas > n {
		return nil, fmt.Errorf("cluster: replicas %d out of range for %d nodes", replicas, n)
	}
	c := &Cluster{Eng: eng, Net: net, Replicas: replicas}
	for i := 0; i < n; i++ {
		cfg := core.DefaultConfig(fmt.Sprintf("dpu%d", i))
		cfg.NVMe.Blocks = 1 << 20
		cfg.Seg.DRAMBytes = 64 << 20
		cfg.Seg.CheckpointEvery = 0
		d, _, err := core.Boot(eng, net, cfg)
		if err != nil {
			return nil, err
		}
		kv, err := kvssd.Create(d.View, seg.OID(0x4B, 0), kvssd.BackendBTree, true)
		if err != nil {
			return nil, err
		}
		node := &Node{DPU: d, KV: kv}
		c.Nodes = append(c.Nodes, node)
		c.serve(node)
	}
	return c, nil
}

func (c *Cluster) serve(n *Node) {
	d := n.DPU
	// A get copies the value out of the store (into scratch) and then
	// into a pooled buffer the reply carries; the router releases it
	// once its callback has returned.
	vals := wire.NewPool(64)
	var scratch []byte
	d.CtrlSrv.Handle(MethodGet, func(arg any, respond func(any, int, error)) {
		if n.down {
			return // dead nodes do not answer; clients time out
		}
		b, ok := arg.(*wire.Buf)
		if !ok {
			respond(nil, 0, fmt.Errorf("cluster: bad get args %T", arg))
			return
		}
		n.Gets++
		// The key aliases the capsule, which is valid for the handler's
		// synchronous extent; GetAppend consumes it before returning.
		v, found, err := n.KV.GetAppend(scratch[:0], b.Bytes())
		scratch = v
		rp := n.newReply(respond)
		rp.found, rp.err = found, err
		if found && err == nil {
			rp.val = vals.Get(len(v))
			copy(rp.val.Bytes(), v)
		}
		n.gets.At(c.Eng, c.Eng.Now().Add(d.View.TakeCost()), rp)
	})
	d.CtrlSrv.Handle(MethodPut, func(arg any, respond func(any, int, error)) {
		if n.down {
			return
		}
		b, ok := arg.(*wire.Buf)
		if !ok {
			respond(nil, 0, fmt.Errorf("cluster: bad put args %T", arg))
			return
		}
		key, value, err := decodePut(b.Bytes())
		if err != nil {
			respond(nil, 0, err)
			return
		}
		n.Puts++
		rp := n.newReply(respond)
		rp.put, rp.err = true, n.KV.Put(key, value)
		n.puts.At(c.Eng, c.Eng.Now().Add(d.View.TakeCost()), rp)
	})
}

// reply is one get or put answer waiting out its modeled storage time
// on its node's lane; replies cycle through the node's free list.
type reply struct {
	n       *Node
	respond func(any, int, error)
	put     bool
	found   bool
	val     *wire.Buf
	err     error
}

func (n *Node) newReply(respond func(any, int, error)) *reply {
	rp, fresh := n.replies.Get()
	if fresh {
		rp.n = n
	}
	rp.respond = respond
	return rp
}

// Fire answers and then recycles: the fields are copied out first, so
// a request the answer triggers may reuse the reply.
func (rp *reply) Fire() {
	n, respond, put, found, val, err := rp.n, rp.respond, rp.put, rp.found, rp.val, rp.err
	*rp = reply{n: n}
	n.replies.Put(rp)
	switch {
	case put:
		respond(true, 64, err)
	case err != nil:
		respond(nil, 64, err)
	case !found:
		respond(nil, 64, ErrNotFound)
	default:
		respond(val, val.Len()+64, nil)
	}
}

// SetRecorder arms the telemetry plane on every node's DPU (network,
// NVMe, PCIe, store, RPC server). Disarmed (nil) the datapath is
// bit-identical to the unhooked cluster.
func (c *Cluster) SetRecorder(rec *telemetry.Recorder) {
	for _, n := range c.Nodes {
		n.DPU.SetRecorder(rec)
	}
}

// MarkDown simulates a node failure (it stops answering).
func (c *Cluster) MarkDown(i int) { c.Nodes[i].down = true }

// Crashes reports how many crash windows ScheduleCrashes installed.
type Crashes struct {
	Windows int
}

// ScheduleCrashes installs deterministic node crash/restart cycles
// derived from the plan (kind Crash): node picking and window timing
// both come from the plan's seeded stream, each window marks one node
// down at Start and back up at End. The schedule is precomputed and
// bounded by horizon, so it adds a finite set of engine events. A nil
// or zero-rate plan installs nothing. Windows come in time order and
// never overlap, so the toggles wait on one lane, not in the heap.
func (c *Cluster) ScheduleCrashes(plan *fault.Plan, horizon sim.Time, meanUp, downFor sim.Duration) Crashes {
	windows := plan.Windows(fault.Crash, horizon, meanUp, downFor)
	toggles := make([]toggle, 2*len(windows))
	for i, w := range windows {
		node := plan.Pick(len(c.Nodes))
		toggles[2*i] = toggle{c: c, node: node, down: true}
		toggles[2*i+1] = toggle{c: c, node: node}
		c.crashes.At(c.Eng, w.Start, &toggles[2*i])
		c.crashes.At(c.Eng, w.End, &toggles[2*i+1])
	}
	return Crashes{Windows: len(windows)}
}

// toggle is one crash window's edge: it marks its node down or up.
type toggle struct {
	c    *Cluster
	node int
	down bool
}

// Fire implements sim.Event.
func (t *toggle) Fire() { t.c.Nodes[t.node].down = t.down }

// shardOf hashes a key to its primary node.
func shardOf(key []byte, n int) int {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// ReplicaSet returns the node indexes holding a key (primary first).
func (c *Cluster) ReplicaSet(key []byte) []int {
	p := shardOf(key, len(c.Nodes))
	out := make([]int, 0, c.Replicas)
	for j := 0; j < c.Replicas; j++ {
		out = append(out, (p+j)%len(c.Nodes))
	}
	return out
}

// Router is the client-side: it owns the shard map and drives requests
// straight to the owning DPU (client-driven routing; the "smartness"
// lives with the client, per passive disaggregation).
type Router struct {
	c   *Cluster
	cli *rpc.Client

	rec *telemetry.Recorder

	caps *wire.Pool
	puts sim.FreeList[putCtx]
	gets sim.FreeList[getCtx]

	Routed, Failovers int64
}

// SetRecorder arms the telemetry plane on the router and its RPC
// client: each Put/Get becomes one request-scoped trace (a fresh
// RequestID propagated through rpc → transport → netsim) with an
// end-to-end span under layer "cluster". Disarmed (nil) the routing
// path is bit-identical to the unhooked router.
func (r *Router) SetRecorder(rec *telemetry.Recorder) {
	r.rec = rec
	r.cli.SetRecorder(rec)
}

// NewRouter attaches a client host to the fabric.
func NewRouter(c *Cluster, name netsim.Addr) (*Router, error) {
	nic, err := c.Net.Attach(name)
	if err != nil {
		return nil, err
	}
	cli := rpc.NewClient(c.Eng, transport.New(c.Eng, transport.RDMA, nic))
	cli.Timeout = 2 * sim.Millisecond
	return &Router{c: c, cli: cli, caps: wire.NewPool(64)}, nil
}

// putCtx fans one replicated write out to every replica with a single
// prebound completion callback; instances cycle through the router's
// free list. It holds the capsule's base reference until every
// replica's rpc call resolves, so stragglers stay valid.
type putCtx struct {
	r        *Router
	capsule  *wire.Buf
	pending  int
	firstErr error
	span     telemetry.RequestID
	start    sim.Time
	cb       func(error)
	doneFn   func(val any, err error)
}

func (r *Router) getPut() *putCtx {
	p, fresh := r.puts.Get()
	if fresh {
		p.r = r
		p.doneFn = p.done
	}
	return p
}

func (p *putCtx) done(_ any, err error) {
	if err != nil && p.firstErr == nil {
		p.firstErr = err
	}
	p.pending--
	if p.pending > 0 {
		return
	}
	r := p.r
	if r.rec != nil {
		r.rec.Span("cluster", "put", p.span, p.start, r.c.Eng.Now())
	}
	p.capsule.Release()
	cb, firstErr := p.cb, p.firstErr
	*p = putCtx{r: r, doneFn: p.doneFn}
	r.puts.Put(p)
	cb(firstErr)
}

// Put writes to every replica; cb fires when all acks (or any error)
// arrive.
func (r *Router) Put(key, value []byte, cb func(error)) {
	n := len(r.c.Nodes)
	primary := shardOf(key, n)
	r.Routed++
	span := r.rec.NewRequest()
	p := r.getPut()
	p.capsule = encodePut(r.caps, key, value)
	p.pending = r.c.Replicas
	p.span = span
	p.start = r.c.Eng.Now()
	p.cb = cb
	bytes := len(key) + len(value) + 64
	for j := 0; j < r.c.Replicas; j++ {
		addr := r.c.Nodes[(primary+j)%n].DPU.ControlAddr()
		r.cli.CallSpan(addr, MethodPut, p.capsule, bytes, span, p.doneFn)
	}
}

// getCtx walks the replica set of one read with a prebound completion
// callback, failing over on timeouts; instances cycle through the
// router's free list.
type getCtx struct {
	r       *Router
	capsule *wire.Buf
	primary int
	attempt int
	bytes   int
	span    telemetry.RequestID
	start   sim.Time
	cb      func([]byte, error)
	doneFn  func(val any, err error)
}

func (r *Router) getGet() *getCtx {
	g, fresh := r.gets.Get()
	if fresh {
		g.r = r
		g.doneFn = g.done
	}
	return g
}

// Get reads from the primary, failing over to the next replica when a
// node does not answer. The value cb receives is lent only until cb
// returns: a caller that keeps it copies it.
func (r *Router) Get(key []byte, cb func(val []byte, err error)) {
	r.Routed++
	span := r.rec.NewRequest()
	g := r.getGet()
	g.capsule = r.caps.Get(len(key))
	copy(g.capsule.Bytes(), key)
	g.primary = shardOf(key, len(r.c.Nodes))
	g.bytes = len(key) + 64
	g.span = span
	g.start = r.c.Eng.Now()
	g.cb = cb
	g.try()
}

func (g *getCtx) try() {
	r := g.r
	if g.attempt >= r.c.Replicas {
		g.resolve(nil, ErrNoReplicas)
		return
	}
	addr := r.c.Nodes[(g.primary+g.attempt)%len(r.c.Nodes)].DPU.ControlAddr()
	r.cli.CallSpan(addr, MethodGet, g.capsule, g.bytes, g.span, g.doneFn)
}

func (g *getCtx) done(val any, err error) {
	if errors.Is(err, rpc.ErrTimeout) {
		g.r.Failovers++
		g.attempt++
		g.try()
		return
	}
	if err != nil {
		g.resolve(nil, err)
		return
	}
	b := val.(*wire.Buf)
	g.resolve(b.Bytes(), nil)
	b.Release()
}

func (g *getCtx) resolve(val []byte, err error) {
	r := g.r
	if r.rec != nil {
		r.rec.Span("cluster", "get", g.span, g.start, r.c.Eng.Now())
	}
	g.capsule.Release()
	cb := g.cb
	*g = getCtx{r: r, doneFn: g.doneFn}
	r.gets.Put(g)
	cb(val, err)
}
