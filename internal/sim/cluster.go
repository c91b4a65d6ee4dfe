// Conservative parallel discrete-event scheduling: a Cluster runs N
// Shards (each wrapping one Engine) on N goroutines, synchronized by
// lookahead-based conservative windows — the null-message-free barrier
// variant of Chandy–Misra–Bryant. Each round the coordinator computes
// LBTS, the global lower bound on pending event timestamps, and every
// shard then executes freely up to (but excluding) LBTS + lookahead:
// no message sent during the window can be due inside it, because
// cross-LP sends must be delayed by at least the lookahead.
//
// # Determinism
//
// A Cluster's results are a pure function of (seed, LP topology) and
// independent of the shard count. The argument, spelled out in
// DESIGN.md §12, rests on four properties enforced here:
//
//   - all cross-LP communication goes through Send envelopes, even
//     between LPs that happen to share a shard, so the window sequence
//     (the LBTS chain) depends only on virtual timestamps, never on
//     the LP→shard layout;
//   - envelopes are injected at barriers sorted by (deliverAt, src,
//     per-shard send sequence), a total order that is layout-
//     independent because each LP's own send order is preserved;
//   - each shard owns its engine, event pool and receive-event free
//     list outright; the coordinator touches them only while every
//     worker is parked at the barrier (channel happens-before). An
//     envelope is written once, by its sender, into a recvEvent from
//     the sender's free list, and changes owner at the barrier;
//   - shard engines never share a Rand: model code that must stay
//     shard-count invariant draws from per-LP generators seeded from
//     the scenario seed, not from Engine.Rand.
//
// The one deliberate use of host concurrency in the model layer lives
// in this file; every site carries a nodeterm annotation arguing why
// it cannot leak host scheduling into simulation results.
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// LP identifies a logical process registered with a Cluster. LPs are
// numbered densely in registration order, which is part of the
// deterministic envelope ordering — register them in a fixed order.
type LP int32

// Envelope is one cross-shard (more precisely: cross-LP) message as
// delivered to a Handler. Kind, A and B are free for the application
// protocol; Data is valid only during the handler call — a receiver
// that keeps the bytes must copy them.
type Envelope struct {
	At   Time // delivery time; equals the shard engine's Now
	Src  LP
	Dst  LP
	Kind uint16
	A, B uint64
	Data []byte
}

// Handler consumes envelopes addressed to one LP. It runs on the
// destination shard's goroutine inside the event loop and may schedule
// engine events or Send further envelopes.
type Handler func(sh *Shard, env Envelope)

// recvEvent is one envelope from Send to its handler: the sender fills
// an instance from its own free list, the coordinator re-homes it to
// the destination shard at the next barrier, and that shard recycles it
// (payload buffer included) after the handler returns. Sender,
// coordinator and receiver never hold it concurrently.
type recvEvent struct {
	sh   *Shard // the shard that fires it; set at the barrier
	at   Time
	src  LP
	dst  LP
	kind uint16
	a, b uint64
	seq  uint64
	data []byte
	fn   func() // prebound re.fire
}

func (re *recvEvent) fire() {
	sh := re.sh
	sh.recvs++
	sh.cl.handlers[re.dst](sh, Envelope{
		At: re.at, Src: re.src, Dst: re.dst,
		Kind: re.kind, A: re.a, B: re.b,
		Data: re.data,
	})
	re.data = re.data[:0]
	sh.recvPool.Put(re)
}

// Shard is one partition of a clustered simulation: a private Engine
// plus the envelope outbox/inbox connecting it to its peers. Handlers
// reach their shard's engine through Engine() for LP-internal
// scheduling; only Send may cross LP boundaries.
type Shard struct {
	id  int
	cl  *Cluster
	eng *Engine

	// Outbox: filled by Send during a window, drained by the
	// coordinator at the following barrier.
	out     []*recvEvent
	sendSeq uint64

	// Inbox: recvEvents routed here at a barrier, sorted, injected
	// onto the lane in that order.
	pending  []*recvEvent
	inbox    Lane
	recvPool FreeList[recvEvent]

	sends, recvs uint64
	events       uint64
	busyNs       int64

	//hyperlint:allow(nodeterm) barrier plumbing: carries only window deadlines from the parked coordinator to this worker; no model state crosses it
	windowCh chan Time
	//hyperlint:allow(nodeterm) barrier plumbing: one completion token per window back to the coordinator, establishing the happens-before the exchange phase relies on
	doneCh chan struct{}
}

// ID returns the shard's index in [0, Cluster.Shards()).
func (sh *Shard) ID() int { return sh.id }

// Engine returns the shard's private engine for LP-internal
// scheduling. Cross-LP interaction must go through Send — and code
// that wants shard-count-invariant results must not draw from this
// engine's Rand (seed per-LP generators from the scenario seed
// instead).
func (sh *Shard) Engine() *Engine { return sh.eng }

// Send queues an envelope from src to dst, to be delivered delay after
// the shard's current time. delay must be at least the cluster
// lookahead — that bound is what lets every shard run a full window
// without seeing its peers' in-flight messages. data is copied
// immediately — the only copy an envelope's bytes get — and the caller
// keeps the slice.
func (sh *Shard) Send(src, dst LP, delay Duration, kind uint16, a, b uint64, data []byte) {
	cl := sh.cl
	if int(src) >= len(cl.handlers) || int(dst) >= len(cl.handlers) || src < 0 || dst < 0 {
		panic(fmt.Sprintf("sim: Send with unknown LP (src=%d dst=%d, %d registered)", src, dst, len(cl.handlers)))
	}
	if cl.lpShard[src] != int32(sh.id) {
		panic(fmt.Sprintf("sim: LP %d sending from shard %d but lives on shard %d", src, sh.id, cl.lpShard[src]))
	}
	if delay < cl.lookahead {
		panic(fmt.Sprintf("sim: Send delay %v below cluster lookahead %v: conservative windows would miss it", delay, cl.lookahead))
	}
	re, fresh := sh.recvPool.Get()
	if fresh {
		re.fn = re.fire
	}
	re.at, re.src, re.dst = sh.eng.Now().Add(delay), src, dst
	re.kind, re.a, re.b, re.seq = kind, a, b, sh.sendSeq
	re.data = append(re.data, data...)
	sh.out = append(sh.out, re)
	sh.sendSeq++
	sh.sends++
}

// worker executes windows as the coordinator releases them. The only
// shared state it touches outside its own shard is the two barrier
// channels.
func (sh *Shard) worker() {
	for deadline := range sh.windowCh {
		//hyperlint:allow(nodeterm) wall time measures barrier stall for Stats only; it never feeds model time
		t0 := time.Now()
		sh.eng.RunUntil(deadline)
		//hyperlint:allow(nodeterm) wall time measures barrier stall for Stats only; it never feeds model time
		sh.busyNs += time.Since(t0).Nanoseconds()
		//hyperlint:allow(nodeterm) barrier completion token: the coordinator resumes only after every shard parks, so exchange never races a window
		sh.doneCh <- struct{}{}
	}
}

// Cluster runs a set of LPs partitioned across shards under
// conservative windows. Construction and registration are
// single-threaded; Run is a one-shot.
type Cluster struct {
	shards    []*Shard
	lookahead Duration
	handlers  []Handler
	lpShard   []int32
	started   bool

	windows uint64
	wallNs  int64
}

// NewCluster creates a cluster of nshards shards. Shard 0's engine is
// seeded with exactly seed — a 1-shard cluster's engine is
// indistinguishable from NewEngine(seed) — and shard i>0 derives its
// seed by mixing in i. lookahead must be positive: it is the minimum
// cross-LP delay, normally the fabric's propagation + minimum-frame
// serialization time (netsim.Config.Lookahead).
func NewCluster(nshards int, seed uint64, lookahead Duration) *Cluster {
	if nshards <= 0 {
		panic("sim: cluster needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: cluster lookahead must be positive")
	}
	cl := &Cluster{lookahead: lookahead}
	for i := 0; i < nshards; i++ {
		s := seed
		if i > 0 {
			s = mix64(seed + uint64(i)*0x9e3779b97f4a7c15)
		}
		sh := &Shard{id: i, cl: cl, eng: NewEngine(s)}
		cl.shards = append(cl.shards, sh)
	}
	return cl
}

// mix64 is splitmix64's finalizer, used to derive per-shard engine
// seeds that do not collide with the scenario seed itself.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// AddLP registers a logical process on the given shard and returns its
// LP id. Registration order defines LP numbering and with it the
// deterministic envelope ordering, so register LPs in a fixed order
// before Run.
func (cl *Cluster) AddLP(shard int, h Handler) LP {
	if cl.started {
		panic("sim: AddLP after Cluster.Run")
	}
	if shard < 0 || shard >= len(cl.shards) {
		panic(fmt.Sprintf("sim: AddLP on shard %d of %d", shard, len(cl.shards)))
	}
	if h == nil {
		panic("sim: AddLP with nil handler")
	}
	lp := LP(len(cl.handlers))
	cl.handlers = append(cl.handlers, h)
	cl.lpShard = append(cl.lpShard, int32(shard))
	return lp
}

// Shards returns the shard count.
func (cl *Cluster) Shards() int { return len(cl.shards) }

// Shard returns shard i.
func (cl *Cluster) Shard(i int) *Shard { return cl.shards[i] }

// Lookahead returns the cluster's lookahead.
func (cl *Cluster) Lookahead() Duration { return cl.lookahead }

// Windows returns the number of conservative windows executed.
func (cl *Cluster) Windows() uint64 { return cl.windows }

// Steps returns the total events executed across all shards.
func (cl *Cluster) Steps() uint64 {
	var n uint64
	for _, sh := range cl.shards {
		n += sh.eng.Steps()
	}
	return n
}

// Now returns the cluster's virtual time (all shards agree between
// windows; during Run it is only meaningful from handlers, via their
// own shard's engine).
func (cl *Cluster) Now() Time { return cl.shards[0].eng.Now() }

// lbts computes the lower bound on pending timestamps: the minimum
// next-event time across all shards. Envelopes do not contribute —
// they have all been injected by the preceding exchange.
func (cl *Cluster) lbts() (Time, bool) {
	min, any := Forever, false
	for _, sh := range cl.shards {
		if t, ok := sh.eng.NextAt(); ok && (!any || t < min) {
			min, any = t, true
		}
	}
	return min, any
}

// exchange hands every parked envelope to its destination shard and
// injects it as an engine event. It runs strictly between windows —
// single-threaded — so it may touch every shard's state, its inbox
// lane included. Per destination, envelopes sort by (deliverAt, src,
// send-seq): a total order independent of the LP→shard layout (see
// the package comment). The sorted batch is monotone, so it joins the
// shard's lane; only an envelope due before one still queued from an
// earlier barrier falls back to the heap.
func (cl *Cluster) exchange() {
	for _, src := range cl.shards {
		for _, re := range src.out {
			dst := cl.shards[cl.lpShard[re.dst]]
			re.sh = dst
			// The event will retire onto dst's free list: take one back
			// for each that leaves, or one-way traffic would pile every
			// event the sender ever allocates up at the receiver.
			if dst != src && len(dst.recvPool.free) > 0 {
				spare, _ := dst.recvPool.Get()
				src.recvPool.Put(spare)
			}
			dst.pending = append(dst.pending, re)
		}
		src.out = src.out[:0]
	}
	for _, dst := range cl.shards {
		if len(dst.pending) == 0 {
			continue
		}
		slices.SortFunc(dst.pending, func(a, b *recvEvent) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			if c := cmp.Compare(a.src, b.src); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
		for _, re := range dst.pending {
			dst.eng.AtLane(&dst.inbox, re.at, re.fn)
		}
		dst.pending = dst.pending[:0]
	}
}

// Run executes the clustered simulation to completion: barrier rounds
// of exchange → LBTS → window, until no shard has pending work. With
// one shard the loop runs inline — same windows, no goroutines — so a
// 1-shard cluster is bit-identical to N shards and nearly free.
func (cl *Cluster) Run() {
	if cl.started {
		panic("sim: Cluster.Run called twice")
	}
	cl.started = true
	single := len(cl.shards) == 1
	if !single {
		for _, sh := range cl.shards {
			//hyperlint:allow(nodeterm) barrier plumbing: deadline and completion channels between coordinator and this shard's worker
			sh.windowCh = make(chan Time)
			//hyperlint:allow(nodeterm) barrier plumbing: deadline and completion channels between coordinator and this shard's worker
			sh.doneCh = make(chan struct{})
			//hyperlint:allow(nodeterm) one long-lived worker per shard; shards share nothing and run only between barriers, so host scheduling cannot reorder model events
			go sh.worker()
		}
	}
	//hyperlint:allow(nodeterm) wall time measures Run duration for Stats only; it never feeds model time
	t0 := time.Now()
	for {
		cl.exchange()
		lbts, ok := cl.lbts()
		if !ok {
			break
		}
		deadline := lbts.Add(cl.lookahead) - 1
		if single {
			sh := cl.shards[0]
			//hyperlint:allow(nodeterm) wall time measures window cost for Stats only; it never feeds model time
			b0 := time.Now()
			sh.eng.RunUntil(deadline)
			//hyperlint:allow(nodeterm) wall time measures window cost for Stats only; it never feeds model time
			sh.busyNs += time.Since(b0).Nanoseconds()
		} else {
			for _, sh := range cl.shards {
				//hyperlint:allow(nodeterm) releases one window; every shard gets the same deadline, so execution content is layout-independent
				sh.windowCh <- deadline
			}
			for _, sh := range cl.shards {
				//hyperlint:allow(nodeterm) parks the coordinator until the shard finishes its window; establishes exchange's exclusive access
				<-sh.doneCh
			}
		}
		cl.windows++
	}
	if !single {
		for _, sh := range cl.shards {
			close(sh.windowCh)
		}
	}
	//hyperlint:allow(nodeterm) wall time measures Run duration for Stats only; it never feeds model time
	cl.wallNs = time.Since(t0).Nanoseconds()
	for _, sh := range cl.shards {
		sh.events = sh.eng.Steps()
	}
}

// ShardStats is one shard's execution summary after Run.
type ShardStats struct {
	Shard   int
	Events  uint64 // engine events executed
	Sends   uint64 // envelopes sent from this shard
	Recvs   uint64 // envelopes delivered to this shard
	BusyNs  int64  // wall nanoseconds executing windows
	StallNs int64  // wall nanoseconds parked at barriers
}

// Stats returns per-shard execution statistics. Event and envelope
// counts are deterministic; Busy/Stall are wall-clock measurements for
// lookahead tuning and never feed back into the simulation.
func (cl *Cluster) Stats() []ShardStats {
	out := make([]ShardStats, len(cl.shards))
	for i, sh := range cl.shards {
		stall := cl.wallNs - sh.busyNs
		if stall < 0 {
			stall = 0
		}
		out[i] = ShardStats{
			Shard: i, Events: sh.events,
			Sends: sh.sends, Recvs: sh.recvs,
			BusyNs: sh.busyNs, StallNs: stall,
		}
	}
	return out
}
