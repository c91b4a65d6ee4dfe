// Package rack models a rack of CPU-free Hyperion DPU boxes behind a
// spine, driven by a large open-loop client population — the paper's
// rack-scale blueprint (§4) at a size one engine cannot reach. It is
// the first consumer of sim.Cluster: every box (NVMe device + KV-SSD
// over a segment store) and every client group is a logical process,
// the rack is partitioned across shards with netsim.Partition, and all
// box↔box and client↔box traffic crosses the spine as timestamped
// envelopes whose minimum latency is the cluster's lookahead.
//
// Shard-count invariance is a design obligation here, not an accident:
//
//   - every LP draws randomness from its own generator seeded from
//     (scenario seed, LP index) — never from a shard engine's Rand;
//   - per-box state (devices, stores, boundary links, wire pools) is
//     reachable from exactly one LP's handlers;
//   - a client group is always co-sharded with its box, so the
//     (group, box) pair migrates between layouts as a unit.
//
// Under those rules sim.Cluster guarantees the same event history for
// any shard count, so the rack's tables are pure functions of the
// seed (pinned by TestShardCountInvariance and E17's golden hash).
package rack

import (
	"encoding/binary"
	"fmt"

	"hyperion/internal/fault"
	"hyperion/internal/netsim"
	"hyperion/internal/nvme"
	"hyperion/internal/seg"
	"hyperion/internal/sim"
	"hyperion/internal/storage/kvssd"
	"hyperion/internal/telemetry"
	"hyperion/internal/wire"
)

// Envelope kinds on the spine.
const (
	opNVMeRead uint16 = iota // A=req id, B=lba
	opKVGet                  // A=req id, B=key index
	opKVPut                  // A=req id, B=key index, Data=value
	repPut                   // A=primary rep id, B=key index, Data=value
	repAck                   // A=primary rep id
	respRead                 // A=req id, B=status, Data=hdr+block
	respGet                  // A=req id, B=found, Data=hdr+value
	respPut                  // A=req id
	respErr                  // A=req id
)

// hdrBytes is the response header staged ahead of the payload in the
// box's pooled wire buffer (req id + aux, little-endian).
const hdrBytes = 16

// spineMsgOverhead models per-message framing on the spine.
const spineMsgOverhead = 64

// boxBlocks is each box's addressable LBA range for remote reads.
const boxBlocks = 1 << 16

// Config shapes one rack scenario.
type Config struct {
	Boxes         int          // DPU boxes (and client groups)
	Shards        int          // sim.Cluster shards
	ClientsPerBox int          // open-loop clients aggregated per group
	RatePerClient float64      // ops/sec issued by each client
	Horizon       sim.Duration // arrival window; completions drain after
	KeysPerBox    int          // preloaded KV keys per box
	ValueBytes    int          // KV value size
	Replicas      int          // KV replication factor (1 = no replication)
	Net           netsim.Config
	FaultRate     float64 // per-request box fault probability (0 = off)
}

// DefaultConfig returns a small, fast rack: 8 boxes, 32k clients.
func DefaultConfig() Config {
	return Config{
		Boxes:         8,
		Shards:        1,
		ClientsPerBox: 4000,
		RatePerClient: 150,
		Horizon:       2 * sim.Millisecond,
		KeysPerBox:    512,
		ValueBytes:    256,
		Replicas:      3,
		Net:           netsim.DefaultConfig(),
	}
}

// Rack is one built scenario. Construct with New, drive with Run,
// then read Totals/Cluster.
type Rack struct {
	cfg    Config
	cl     *sim.Cluster
	boxes  []*box
	groups []*group
	pools  []*wire.Pool // one wire pool per shard — never shared across
	value  []byte
}

// box is one Hyperion DPU: raw NVMe namespace for remote block reads
// plus a KV-SSD (B+ tree over the segment store) for the KV protocol.
type box struct {
	r      *Rack
	idx    int
	lp     sim.LP
	sh     *sim.Shard
	eng    *sim.Engine
	view   *seg.SyncView
	kv     *kvssd.KV
	host   *nvme.Host
	up     *netsim.BoundaryLink
	pool   *wire.Pool
	plan   *fault.Plan
	keyBuf [8]byte

	reps    []repState
	repIdle []int32

	// The state a box keeps from handle to the event that answers a
	// request, in place of a closure per request. E17's open loop
	// overloads the flash, so at its peak most of its reads and a sixth
	// of its KV ops are in flight together: one op type per callback
	// shape.
	readOps sim.FreeList[readOp]
	kvOps   sim.FreeList[kvOp]

	// vals is the unissued tail of the slab get buffers are carved
	// from, valChunk the number of values the newest slab held.
	vals     []byte
	valChunk int

	// One lane per KV completion kind: each kind's storage cost is
	// steady, so its answers come due in the order they were asked.
	getLane, putLane, repLane sim.Lane

	reads, gets, puts, dropped int64
}

// readOp is one remote block read waiting on the device.
type readOp struct {
	b   *box
	src sim.LP
	id  uint64
	fn  func(data []byte, status uint16) // prebound done
}

// done is the Read completion: reply copies data into the wire
// buffer before returning, which is all the device-owned block is good
// for. The op is recycled first, so whatever the reply sets off finds
// it free.
func (op *readOp) done(data []byte, status uint16) {
	b, src, id := op.b, op.src, op.id
	b.readOps.Put(op)
	if status != nvme.StatusOK {
		b.reply(src, respErr, id, uint64(status), nil)
		return
	}
	b.reply(src, respRead, id, uint64(status), data)
}

// kvOp is one KV request whose storage access has been done and whose
// modeled cost is still elapsing. val is the op's own buffer: a get
// reads its value into it and the capacity stays with the op across
// recycling, so a box copies values out of its store without
// allocating. An op's first get carves the buffer from the box's slab.
type kvOp struct {
	b       *box
	kind    uint16 // reply kind; respPut marks the primary's local write
	src     sim.LP
	id, aux uint64
	val     []byte
	fn      func() // prebound done
}

// takeKVOp takes an op from the box's pool, its value buffer empty.
func (b *box) takeKVOp() *kvOp {
	op, fresh := b.kvOps.Get()
	if fresh {
		op.b, op.fn = b, op.done
	}
	op.val = op.val[:0]
	return op
}

// valBuf carves an empty buffer of capacity ValueBytes from the box's
// slab. Slabs double from one value to 32, as sim.FreeList's chunks do.
func (b *box) valBuf() []byte {
	n := b.r.cfg.ValueBytes
	if len(b.vals) < n {
		b.valChunk = min(max(2*b.valChunk, 1), 32)
		b.vals = make([]byte, b.valChunk*n)
	}
	v := b.vals[:0:n]
	b.vals = b.vals[n:]
	return v
}

// later answers (kind, id, aux, op.val) to src on lane l once the cost
// the view has accumulated has elapsed; for respPut it counts the
// primary's local write of rep slot id instead.
func (b *box) later(op *kvOp, l *sim.Lane, kind uint16, src sim.LP, id, aux uint64) {
	op.kind, op.src, op.id, op.aux = kind, src, id, aux
	b.eng.AtLane(l, b.eng.Now().Add(b.view.TakeCost()), op.fn)
}

// done answers and then recycles: reply copies op.val into the wire
// buffer and only queues an envelope, so nothing can reach for the op
// before it is back in the pool.
func (op *kvOp) done() {
	b := op.b
	if op.kind == respPut {
		b.repDone(op.id)
	} else {
		b.reply(op.src, op.kind, op.id, op.aux, op.val)
	}
	b.kvOps.Put(op)
}

// repState tracks one in-flight replicated put at its primary.
type repState struct {
	src   sim.LP
	reqID uint64
	acks  int
	used  bool
}

// group aggregates one box's worth of open-loop clients: a merged
// Poisson arrival process at ClientsPerBox × RatePerClient ops/sec.
type group struct {
	r    *Rack
	idx  int
	lp   sim.LP
	sh   *sim.Shard
	eng  *sim.Engine
	rng  *sim.Rand
	up   *netsim.BoundaryLink
	mean sim.Duration
	stop sim.Time

	pend []pendOp
	idle []int32

	pumpName string
	pumpFn   func()

	latRead, latGet, latPut sim.LatencyRecorder
	issued, ok, errs        int64
	bytesMoved              int64
}

// pendOp is one outstanding request at its issuing group.
type pendOp struct {
	t0   sim.Time
	kind uint16
	used bool
}

// New builds a rack for the given scenario seed: cluster, boxes with
// preloaded stores, client groups. rec, when non-nil, arms per-box
// telemetry; traced runs require Shards == 1 (a recorder sink is
// single-threaded state, and the tables are shard-count invariant
// anyway).
func New(cfg Config, seed uint64, rec *telemetry.Recorder) *Rack {
	if cfg.Boxes <= 0 || cfg.Shards <= 0 || cfg.Replicas <= 0 || cfg.Replicas > cfg.Boxes {
		panic(fmt.Sprintf("rack: bad config: %d boxes, %d shards, %d replicas", cfg.Boxes, cfg.Shards, cfg.Replicas))
	}
	if rec != nil && cfg.Shards != 1 {
		panic("rack: traced runs require exactly one shard")
	}
	if cfg.Shards > cfg.Boxes {
		cfg.Shards = cfg.Boxes
	}
	r := &Rack{
		cfg:   cfg,
		cl:    sim.NewCluster(cfg.Shards, seed, cfg.Net.Lookahead()),
		value: make([]byte, cfg.ValueBytes),
	}
	for i := range r.value {
		r.value[i] = byte(i*7 + 13)
	}
	r.pools = make([]*wire.Pool, cfg.Shards)
	for s := range r.pools {
		r.pools[s] = wire.NewPool(hdrBytes + 4096)
	}
	layout := netsim.Partition(cfg.Boxes, cfg.Shards)

	// Registration order is part of the deterministic envelope order:
	// box LPs first, then group LPs, both in box order.
	for i := 0; i < cfg.Boxes; i++ {
		b := r.newBox(i, layout[i], seed, rec)
		r.boxes = append(r.boxes, b)
	}
	for i := 0; i < cfg.Boxes; i++ {
		g := r.newGroup(i, layout[i], seed)
		r.groups = append(r.groups, g)
	}
	return r
}

func (r *Rack) newBox(i, shard int, seed uint64, rec *telemetry.Recorder) *box {
	cfg := r.cfg
	sh := r.cl.Shard(shard)
	eng := sh.Engine()

	ncfg := nvme.DefaultConfig(fmt.Sprintf("box%02d.flash", i))
	ncfg.Blocks = boxBlocks
	dev := nvme.New(eng, ncfg)
	host := nvme.NewHost(dev, nil)

	scfg := seg.DefaultConfig()
	scfg.DRAMBytes = 32 << 20
	scfg.CheckpointEvery = 0
	kcfg := nvme.DefaultConfig(fmt.Sprintf("box%02d.kvflash", i))
	kcfg.Blocks = boxBlocks
	view := seg.NewSyncView(seg.New(eng, scfg, []*nvme.Host{nvme.NewHost(nvme.New(eng, kcfg), nil)}))
	kv, err := kvssd.Create(view, seg.OID(0x4B, uint64(i+1)), kvssd.BackendBTree, true)
	if err != nil {
		panic(err)
	}

	b := &box{
		r: r, idx: i, lp: 0, sh: sh, eng: eng,
		view: view, kv: kv, host: host,
		up:   netsim.NewBoundaryLink(cfg.Net),
		pool: r.pools[shard],
	}
	if cfg.FaultRate > 0 {
		b.plan = fault.NewPlanIndexed(seed, "rack.box", i).Set(fault.Drop, cfg.FaultRate)
	}
	if rec != nil {
		crec := rec.Child(fmt.Sprintf("rack.box%02d", i))
		dev.SetRecorder(crec)
		host.SetRecorder(crec)
	}
	// Preload the box's keyspace synchronously: pure construction, no
	// engine events, so every layout starts from identical state.
	for k := 0; k < cfg.KeysPerBox; k++ {
		if err := b.kv.Put(b.key(uint64(k)), r.value); err != nil {
			panic(err)
		}
	}
	view.TakeCost()

	b.lp = r.cl.AddLP(shard, b.handle)
	return b
}

func (r *Rack) newGroup(i, shard int, seed uint64) *group {
	cfg := r.cfg
	sh := r.cl.Shard(shard)
	rate := float64(cfg.ClientsPerBox) * cfg.RatePerClient
	g := &group{
		r: r, idx: i, sh: sh, eng: sh.Engine(),
		rng:      sim.NewRand(seed ^ (0x9e3779b97f4a7c15 * uint64(i+1))),
		up:       netsim.NewBoundaryLink(cfg.Net),
		mean:     sim.Duration(float64(sim.Second) / rate),
		stop:     sim.Time(0).Add(cfg.Horizon),
		pumpName: fmt.Sprintf("rack.arrive:g%02d", i),
	}
	g.pumpFn = g.pump
	g.lp = r.cl.AddLP(shard, g.handle)
	// First arrival: an engine event scheduled before Run, so every
	// layout seeds its traffic identically.
	first := sim.Time(0).Add(g.rng.Exp(g.mean))
	if first <= g.stop {
		g.eng.At(first, g.pumpName, g.pumpFn)
	}
	return g
}

// key renders a key index as the box's 8-byte key. The scratch buffer
// is safe to reuse: kvssd copies key bytes into its log and index.
func (b *box) key(k uint64) []byte {
	binary.LittleEndian.PutUint64(b.keyBuf[:], k)
	return b.keyBuf[:]
}

// reply stages hdr+payload in the box's shard-local wire pool and
// sends it up the box's spine link. Send copies the bytes into the
// envelope, so the Buf is released before returning — no reference
// ever crosses a shard boundary.
func (b *box) reply(dst sim.LP, kind uint16, id, aux uint64, payload []byte) {
	buf := b.pool.Get(hdrBytes + len(payload))
	wb := buf.Bytes()
	binary.LittleEndian.PutUint64(wb[0:8], id)
	binary.LittleEndian.PutUint64(wb[8:16], aux)
	copy(wb[hdrBytes:], payload)
	delay := b.up.Delay(b.eng.Now(), spineMsgOverhead+len(wb))
	b.sh.Send(b.lp, dst, delay, kind, id, aux, wb)
	buf.Release()
}

// handle serves one spine envelope addressed to this box.
func (b *box) handle(sh *sim.Shard, env sim.Envelope) {
	// The fault plane drops client requests only: replication traffic
	// stays reliable so a dropped put still answers its client.
	if env.Kind <= opKVPut && b.plan.Roll(fault.Drop) {
		b.dropped++
		b.reply(env.Src, respErr, env.A, 0, nil)
		return
	}
	switch env.Kind {
	case opNVMeRead:
		b.reads++
		op, fresh := b.readOps.Get()
		if fresh {
			op.b, op.fn = b, op.done
		}
		op.src, op.id = env.Src, env.A
		if err := b.host.Read(0, int64(env.B%boxBlocks), 1, op.fn); err != nil {
			b.readOps.Put(op)
			b.reply(env.Src, respErr, env.A, 0, nil)
		}
	case opKVGet:
		b.gets++
		op := b.takeKVOp()
		if cap(op.val) == 0 {
			op.val = b.valBuf()
		}
		val, found, err := b.kv.GetAppend(op.val, b.key(env.B))
		if err != nil {
			panic(fmt.Sprintf("rack: box %d get: %v", b.idx, err))
		}
		op.val = val
		aux := uint64(0)
		if found {
			aux = 1
		}
		b.later(op, &b.getLane, respGet, env.Src, env.A, aux)
	case opKVPut:
		b.puts++
		if err := b.kv.Put(b.key(env.B), env.Data); err != nil {
			panic(fmt.Sprintf("rack: box %d put: %v", b.idx, err))
		}
		rid := b.allocRep(env.Src, env.A)
		// Fan the value out to the replica set now (replication is
		// concurrent with the local write); Send copies env.Data, which
		// is only valid during this handler.
		for k := 1; k < b.r.cfg.Replicas; k++ {
			peer := b.r.boxes[(b.idx+k)%b.r.cfg.Boxes]
			delay := b.up.Delay(b.eng.Now(), spineMsgOverhead+len(env.Data))
			sh.Send(b.lp, peer.lp, delay, repPut, rid, env.B, env.Data)
		}
		// The local write acks once its modeled cost has elapsed.
		b.later(b.takeKVOp(), &b.putLane, respPut, 0, rid, 0)
	case repPut:
		if err := b.kv.Put(b.key(env.B), env.Data); err != nil {
			panic(fmt.Sprintf("rack: box %d replica put: %v", b.idx, err))
		}
		b.later(b.takeKVOp(), &b.repLane, repAck, env.Src, env.A, 0)
	case repAck:
		b.repDone(env.A)
	default:
		panic(fmt.Sprintf("rack: box %d: unknown envelope kind %d", b.idx, env.Kind))
	}
}

func (b *box) allocRep(src sim.LP, reqID uint64) uint64 {
	var rid uint64
	if n := len(b.repIdle); n > 0 {
		rid = uint64(b.repIdle[n-1])
		b.repIdle = b.repIdle[:n-1]
	} else {
		b.reps = append(b.reps, repState{})
		rid = uint64(len(b.reps) - 1)
	}
	b.reps[rid] = repState{src: src, reqID: reqID, used: true}
	return rid
}

// repDone counts one ack (local or remote) for a replicated put and
// answers the client when the set is complete.
func (b *box) repDone(rid uint64) {
	rs := &b.reps[rid]
	if !rs.used {
		panic(fmt.Sprintf("rack: box %d: ack for idle rep slot %d", b.idx, rid))
	}
	rs.acks++
	if rs.acks < b.r.cfg.Replicas {
		return
	}
	b.reply(rs.src, respPut, rs.reqID, 0, nil)
	rs.used = false
	b.repIdle = append(b.repIdle, int32(rid))
}

// pump issues one client op and schedules the next arrival while the
// horizon is open. The merged Poisson process is the superposition of
// the group's ClientsPerBox independent client processes.
func (g *group) pump() {
	g.issue()
	next := g.eng.Now().Add(g.rng.Exp(g.mean))
	if next <= g.stop {
		g.eng.At(next, g.pumpName, g.pumpFn)
	}
}

func (g *group) issue() {
	cfg := &g.r.cfg
	rng := g.rng
	dst := g.r.boxes[rng.Intn(cfg.Boxes)]
	id := g.alloc()
	p := &g.pend[id]
	p.t0 = g.eng.Now()
	p.used = true
	var bytes int
	var data []byte
	roll := rng.Float64()
	switch {
	case roll < 0.5:
		p.kind = opNVMeRead
		bytes = spineMsgOverhead
	case roll < 0.8:
		p.kind = opKVGet
		bytes = spineMsgOverhead + 8
	default:
		p.kind = opKVPut
		data = g.r.value
		bytes = spineMsgOverhead + 8 + len(data)
	}
	var aux uint64
	switch p.kind {
	case opNVMeRead:
		aux = uint64(rng.Intn(boxBlocks))
	default:
		aux = uint64(rng.Intn(cfg.KeysPerBox))
	}
	g.issued++
	delay := g.up.Delay(g.eng.Now(), bytes)
	g.sh.Send(g.lp, dst.lp, delay, p.kind, id, aux, data)
}

func (g *group) alloc() uint64 {
	if n := len(g.idle); n > 0 {
		id := g.idle[n-1]
		g.idle = g.idle[:n-1]
		return uint64(id)
	}
	g.pend = append(g.pend, pendOp{})
	return uint64(len(g.pend) - 1)
}

// handle consumes one response envelope.
func (g *group) handle(sh *sim.Shard, env sim.Envelope) {
	id := env.A
	p := &g.pend[id]
	if !p.used {
		panic(fmt.Sprintf("rack: group %d: response for idle req %d", g.idx, id))
	}
	lat := env.At.Sub(p.t0)
	switch env.Kind {
	case respRead:
		g.latRead.Record(lat)
		g.ok++
		g.bytesMoved += int64(len(env.Data) - hdrBytes)
	case respGet:
		g.latGet.Record(lat)
		g.ok++
		g.bytesMoved += int64(len(env.Data) - hdrBytes)
	case respPut:
		g.latPut.Record(lat)
		g.ok++
		g.bytesMoved += int64(g.r.cfg.ValueBytes)
	case respErr:
		g.errs++
	default:
		panic(fmt.Sprintf("rack: group %d: unknown response kind %d", g.idx, env.Kind))
	}
	p.used = false
	g.idle = append(g.idle, int32(id))
}

// Run drives the scenario to completion: all arrivals within the
// horizon, every response drained.
func (r *Rack) Run() { r.cl.Run() }

// Cluster exposes the underlying cluster for stats (windows, per-shard
// events, barrier stall).
func (r *Rack) Cluster() *sim.Cluster { return r.cl }

// Config returns the rack's configuration (after shard clamping).
func (r *Rack) Config() Config { return r.cfg }

// Totals is the deterministic scenario summary: a pure function of
// the seed, independent of shard count.
type Totals struct {
	Clients                         int
	Issued, OK, Errs                int64
	Reads, Gets, Puts               int64
	BytesMoved                      int64
	LatRead, LatGet, LatPut, LatAll sim.LatencyRecorder
}

// Totals merges per-group and per-box counters in box order. Each
// merged recorder is sized first, so merging copies every sample once.
func (r *Rack) Totals() *Totals {
	t := &Totals{Clients: r.cfg.Boxes * r.cfg.ClientsPerBox}
	var nRead, nGet, nPut int
	for _, g := range r.groups {
		nRead += g.latRead.Count()
		nGet += g.latGet.Count()
		nPut += g.latPut.Count()
	}
	t.LatRead.Grow(nRead)
	t.LatGet.Grow(nGet)
	t.LatPut.Grow(nPut)
	t.LatAll.Grow(nRead + nGet + nPut)
	for _, g := range r.groups {
		t.Issued += g.issued
		t.OK += g.ok
		t.Errs += g.errs
		t.BytesMoved += g.bytesMoved
		t.LatRead.Merge(&g.latRead)
		t.LatGet.Merge(&g.latGet)
		t.LatPut.Merge(&g.latPut)
	}
	for _, b := range r.boxes {
		t.Reads += b.reads
		t.Gets += b.gets
		t.Puts += b.puts
	}
	t.LatAll.Merge(&t.LatRead)
	t.LatAll.Merge(&t.LatGet)
	t.LatAll.Merge(&t.LatPut)
	return t
}
