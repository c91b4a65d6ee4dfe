package tenant

import (
	"fmt"
	"sort"

	"hyperion/internal/fabric"
	"hyperion/internal/fault"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// Config sizes the control plane.
type Config struct {
	MaxTenants int          // admission cap = WFQ port count
	Lease      sim.Duration // slot tenure before preemption; 0 = static placement
	DepthItems int          // per-tenant FIFO depth, in items
}

// The WFQ arbiter in front of the slots.
const (
	maxWeight  = 16 // largest admissible DRR weight
	widthBytes = 64 // WFQ bus width per beat
)

// DefaultConfig matches the Figure 2 box: up to 16 tenants over 5
// slots, 512-bit bus, static placement unless a lease is set.
func DefaultConfig() Config {
	return Config{MaxTenants: 16, DepthItems: 64}
}

// Controller is the admission controller and slot scheduler. It owns
// the placement state machine; the fabric executes its decisions.
// Layer discipline: everything is driven by engine events, all state
// lives in slices indexed by tenant id / slot / port (no map order
// anywhere near a decision).
type Controller struct {
	eng *sim.Engine
	fab *fabric.Fabric
	cfg Config
	arb *fabric.WFQArbiter

	tenants    []*Tenant
	queue      []int  // tenant ids waiting for a slot, FIFO
	slotTenant []int  // slot -> occupant tenant id, or -1
	slotDown   []bool // fault-plane outage in progress
	portUsed   []bool
	budget     fabric.Resources // per-slot admission budget
	horizon    sim.Time         // scheduling stops here; 0 = never
	rec        *telemetry.Recorder
	reqs       sim.FreeList[request]

	Admitted  int64
	Rejected  int64
	Live      int64 // admitted and not departed
	Reconfigs int64 // completed activations
	Preempts  int64
	Evictions int64
}

// New creates a controller over fab. The WFQ arbiter is clocked at the
// fabric frequency; its sink dispatches into the occupant slot's
// pipeline.
func New(eng *sim.Engine, fab *fabric.Fabric, cfg Config) *Controller {
	if cfg.MaxTenants <= 0 {
		panic("tenant: invalid config")
	}
	c := &Controller{eng: eng, fab: fab, cfg: cfg}
	c.arb = fabric.NewWFQArbiter(eng, "tenant", fab.Config().ClockHz, widthBytes, cfg.DepthItems, cfg.MaxTenants, c.dispatch)
	slots, total := len(fab.Slots()), fabric.U280Resources()
	c.slotTenant = make([]int, slots)
	for i := range c.slotTenant {
		c.slotTenant[i] = -1
	}
	c.slotDown = make([]bool, slots)
	c.portUsed = make([]bool, cfg.MaxTenants)
	c.budget = fabric.Resources{
		LUTs: total.LUTs / slots,
		FFs:  total.FFs / slots,
		BRAM: total.BRAM / slots,
		DSP:  total.DSP / slots,
		URAM: total.URAM / slots,
	}
	return c
}

// SetRecorder arms the telemetry plane on the controller and its
// arbiter. Tenants admitted afterwards get per-tenant child processes;
// arm before admitting for complete coverage.
func (c *Controller) SetRecorder(rec *telemetry.Recorder) {
	c.rec = rec
	c.arb.SetRecorder(rec)
}

// SetHorizon stops scheduling activity (lease renewals, preemptions)
// at h, so a run with a positive lease drains instead of time-slicing
// forever. Placement of already-queued tenants still completes.
func (c *Controller) SetHorizon(h sim.Time) { c.horizon = h }

// Admit runs admission control on spec. On success the tenant is
// queued for a slot (placement happens immediately if one is free) and
// its book-of-record entry is returned; on failure the error reports
// why the box turned the tenant away.
func (c *Controller) Admit(spec Spec) (*Tenant, error) {
	if spec.Weight < 1 || spec.Weight > maxWeight {
		return nil, fmt.Errorf("%w: weight %d outside [1,%d]", ErrBadSpec, spec.Weight, maxWeight)
	}
	if err := spec.Image.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if _, ok := c.budget.Sub(spec.Image.Uses); !ok {
		c.Rejected++
		return nil, fmt.Errorf("%w: image %q exceeds the per-slot resource budget", ErrRejected, spec.Image.Name)
	}
	if int(c.Live) >= c.cfg.MaxTenants {
		c.Rejected++
		return nil, fmt.Errorf("%w: %d tenants live (cap %d)", ErrRejected, c.Live, c.cfg.MaxTenants)
	}
	port := -1
	for i, used := range c.portUsed {
		if !used {
			port = i
			break
		}
	}
	if port < 0 {
		// Unreachable while Live < MaxTenants, but keep the error path.
		c.Rejected++
		return nil, fmt.Errorf("%w: no free arbiter port", ErrRejected)
	}
	t := &Tenant{
		ID:        len(c.tenants),
		Spec:      spec,
		State:     StateQueued,
		Slot:      -1,
		Port:      port,
		QueuedAt:  c.eng.Now(),
		leaseName: "tenant.lease:" + spec.Name,
	}
	if c.rec != nil {
		t.crec = c.rec.Child("tenant:" + spec.Name)
	}
	c.portUsed[port] = true
	c.arb.SetWeight(port, spec.Weight)
	c.tenants = append(c.tenants, t)
	c.queue = append(c.queue, t.ID)
	c.Admitted++
	c.Live++
	c.kick()
	return t, nil
}

// Depart removes a tenant: queued entries leave the queue, a held slot
// is torn down (a pending reconfiguration is cancelled), and any
// requests still in the FIFO resolve with ErrDeparted.
func (c *Controller) Depart(id int) error {
	t, err := c.lookup(id)
	if err != nil {
		return err
	}
	switch t.State {
	case StateDeparted:
		return nil
	case StateQueued:
		c.unqueue(id)
	case StateReconfiguring:
		// Evict rather than Unload: it cancels the pending activation.
		if err := c.fab.Evict(t.Slot); err != nil {
			panic("tenant: depart evict: " + err.Error())
		}
		c.slotTenant[t.Slot] = -1
		t.Slot = -1
	case StateActive:
		c.resolveFlush(t, ErrDeparted)
		if err := c.fab.Unload(t.Slot); err != nil {
			panic("tenant: depart unload: " + err.Error())
		}
		c.slotTenant[t.Slot] = -1
		t.Slot = -1
	}
	t.State = StateDeparted
	c.portUsed[t.Port] = false
	c.Live--
	c.kick()
	return nil
}

// Submit offers one request on behalf of tenant id: ctx is the item's
// pipeline context, copied into the request's own fabric.Work, so the
// caller may reuse it as soon as Submit returns. A tenant without an
// active slot is refused synchronously with ErrNotActive (done is not
// called); a full FIFO refuses with fabric.ErrStreamFull. Accepted
// requests always resolve done exactly once — with nil and a result
// latency recorded, with a Retryable/terminal error if scheduling sheds
// them, or with ErrFaulted if the slot's image faults on the item.
func (c *Controller) Submit(id int, ctx []byte, bytes int, done func(error)) error {
	t, err := c.lookup(id)
	if err != nil {
		return err
	}
	if t.State != StateActive {
		t.NotActive++
		return ErrNotActive
	}
	rq := c.getReq()
	rq.id = id
	rq.t0 = c.eng.Now()
	rq.work.Ctx = append(rq.work.Ctx[:0], ctx...)
	rq.done = done
	rq.span = t.crec.NewRequest()
	if err := c.arb.Push(t.Port, fabric.Item{Payload: rq, Bytes: bytes, Span: rq.span}); err != nil {
		rq.done = nil
		c.reqs.Put(rq)
		t.Shed++
		return err
	}
	t.Submitted++
	return nil
}

// ArmEvictions installs the fault plane's slot-outage schedule: one
// precomputed window sequence (kind Evict) with a uniformly drawn
// victim slot per window, all derived from the plan at arm time so the
// chaos schedule is a pure function of (seed, layer) regardless of how
// the run's events interleave. Returns the number of windows armed.
func (c *Controller) ArmEvictions(plan *fault.Plan, horizon sim.Time, meanUp, downFor sim.Duration) int {
	ws := plan.Windows(fault.Evict, horizon, meanUp, downFor)
	for _, w := range ws {
		end := w.End
		slot := plan.Pick(len(c.slotTenant))
		c.eng.At(w.Start, "tenant.evict.down", func() { c.slotFault(slot, end) })
	}
	return len(ws)
}

// Report renders the per-tenant SLO table over a measurement window,
// sorted by tenant name. Names are pure labels: permuting them
// permutes rows, never values.
func (c *Controller) Report(window sim.Duration) []Row {
	rows := make([]Row, 0, len(c.tenants))
	secs := float64(window) / float64(sim.Second)
	for _, t := range c.tenants {
		r := Row{
			Name:        t.Spec.Name,
			Weight:      t.Spec.Weight,
			State:       t.State.String(),
			Placements:  t.Placements,
			Preemptions: t.Preemptions,
			Evictions:   t.Evictions,
			Submitted:   t.Submitted,
			Completed:   t.Completed,
			Retryable:   t.Retried + t.NotActive + t.Shed,
			Failed:      t.Failed,
		}
		if t.Lat.Count() > 0 {
			r.P50 = t.Lat.Percentile(50)
			r.P99 = t.Lat.Percentile(99)
		}
		if secs > 0 {
			r.GoodputOPS = float64(t.Completed) / secs
		}
		r.ViolLat = t.Spec.SLO.P99 > 0 && r.P99 > t.Spec.SLO.P99
		r.ViolGood = t.Spec.SLO.Goodput > 0 && r.GoodputOPS < t.Spec.SLO.Goodput
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// CheckInvariants validates the scheduling invariants the property
// tests pin: conservation, slot exclusivity, port exclusivity,
// controller/fabric state agreement, and the WFQ arbiter's own
// bookkeeping. It returns the first violation.
func (c *Controller) CheckInvariants() error {
	inQueue := make([]int, len(c.tenants))
	for _, id := range c.queue {
		if id < 0 || id >= len(c.tenants) {
			return fmt.Errorf("queue holds unknown tenant id %d", id)
		}
		inQueue[id]++
	}
	slotOf := make([]int, len(c.tenants))
	for i := range slotOf {
		slotOf[i] = -1
	}
	for s, id := range c.slotTenant {
		if id < 0 {
			continue
		}
		if id >= len(c.tenants) {
			return fmt.Errorf("slot %d holds unknown tenant id %d", s, id)
		}
		if slotOf[id] >= 0 {
			return fmt.Errorf("tenant %d occupies slots %d and %d", id, slotOf[id], s)
		}
		slotOf[id] = s
	}
	ports := make([]int, c.cfg.MaxTenants)
	for i := range ports {
		ports[i] = -1
	}
	for _, t := range c.tenants {
		switch t.State {
		case StateQueued:
			if inQueue[t.ID] != 1 || t.Slot != -1 || slotOf[t.ID] != -1 {
				return fmt.Errorf("tenant %d queued: queue entries=%d slot=%d", t.ID, inQueue[t.ID], t.Slot)
			}
		case StateReconfiguring, StateActive:
			if inQueue[t.ID] != 0 || t.Slot < 0 || slotOf[t.ID] != t.Slot {
				return fmt.Errorf("tenant %d placed: queue entries=%d slot=%d slotTenant=%d", t.ID, inQueue[t.ID], t.Slot, slotOf[t.ID])
			}
			slot, err := c.fab.Slot(t.Slot)
			if err != nil {
				return err
			}
			want := fabric.SlotActive
			if t.State == StateReconfiguring {
				want = fabric.SlotReconfiguring
			}
			if slot.State != want {
				return fmt.Errorf("tenant %d in state %v but fabric slot %d is %v", t.ID, t.State, t.Slot, slot.State)
			}
		case StateDeparted:
			if inQueue[t.ID] != 0 || slotOf[t.ID] != -1 {
				return fmt.Errorf("departed tenant %d still scheduled", t.ID)
			}
			continue
		}
		if ports[t.Port] >= 0 {
			return fmt.Errorf("tenants %d and %d share port %d", ports[t.Port], t.ID, t.Port)
		}
		ports[t.Port] = t.ID
	}
	return c.arb.CheckInvariants()
}

// --- internals ---

func (c *Controller) lookup(id int) (*Tenant, error) {
	if id < 0 || id >= len(c.tenants) {
		return nil, ErrUnknown
	}
	return c.tenants[id], nil
}

func (c *Controller) unqueue(id int) {
	for i, q := range c.queue {
		if q == id {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
	panic("tenant: unqueue: id not in queue")
}

// freeSlot returns the lowest empty, up slot, or -1.
func (c *Controller) freeSlot() int {
	for s, id := range c.slotTenant {
		if id < 0 && !c.slotDown[s] {
			return s
		}
	}
	return -1
}

// expiredVictim returns the lowest-slot active tenant whose lease has
// already expired, or nil.
func (c *Controller) expiredVictim() *Tenant {
	for _, id := range c.slotTenant {
		if id < 0 {
			continue
		}
		if t := c.tenants[id]; t.State == StateActive && t.leaseOver {
			return t
		}
	}
	return nil
}

// kick drains the wait queue into free slots, preempting expired-lease
// occupants when the queue is backed up. It is the only place tenants
// move from queued to placed.
func (c *Controller) kick() {
	for len(c.queue) > 0 {
		s := c.freeSlot()
		if s < 0 {
			v := c.expiredVictim()
			if v == nil {
				return
			}
			c.preempt(v)
			continue
		}
		id := c.queue[0]
		c.queue = c.queue[1:]
		c.place(c.tenants[id], s)
	}
}

// place starts partial reconfiguration of slot s for tenant t. The
// activation callback is guarded by the placement generation, so a
// cancelled reconfiguration (eviction, departure) can never activate a
// stale placement.
func (c *Controller) place(t *Tenant, s int) {
	wait := c.eng.Now().Sub(t.QueuedAt)
	if wait > t.MaxWait {
		t.MaxWait = wait
	}
	c.slotTenant[s] = t.ID
	t.Slot = s
	t.State = StateReconfiguring
	t.leaseOver = false
	t.Placements++
	gen := t.Placements
	if err := c.fab.LoadBitstream(s, t.Spec.Image, func() { c.activated(t, gen) }); err != nil {
		panic("tenant: place: " + err.Error())
	}
}

func (c *Controller) activated(t *Tenant, gen int64) {
	if t.State != StateReconfiguring || t.Placements != gen {
		panic("tenant: stale activation callback")
	}
	t.State = StateActive
	t.ActivatedAt = c.eng.Now()
	c.Reconfigs++
	if c.cfg.Lease > 0 {
		c.eng.After(c.cfg.Lease, t.leaseName, func() { c.leaseExpired(t, gen) })
	}
}

// leaseExpired fires once per placement. With waiters backed up the
// occupant is preempted on the spot; otherwise the lease is only
// marked expired, and the next arrival triggers the preemption — no
// standing timer chain, so idle boxes drain.
func (c *Controller) leaseExpired(t *Tenant, gen int64) {
	if t.State != StateActive || t.Placements != gen {
		return // displaced before the lease ran out
	}
	if c.horizon > 0 && c.eng.Now() >= c.horizon {
		return
	}
	if len(c.queue) == 0 {
		t.leaseOver = true
		return
	}
	c.preempt(t)
	c.kick()
}

// preempt displaces an active tenant at lease expiry: its FIFO backlog
// resolves retryable, the slot unloads instantly, and the tenant
// requeues at the tail.
func (c *Controller) preempt(t *Tenant) {
	c.resolveFlush(t, ErrPreempted)
	if err := c.fab.Unload(t.Slot); err != nil {
		panic("tenant: preempt unload: " + err.Error())
	}
	c.slotTenant[t.Slot] = -1
	t.Slot = -1
	t.State = StateQueued
	t.QueuedAt = c.eng.Now()
	t.leaseOver = false
	t.Preemptions++
	c.Preempts++
	c.queue = append(c.queue, t.ID)
}

// slotFault is the fault plane's eviction: slot s is down until end;
// the occupant (even one mid-reconfiguration) is displaced and
// requeued, its backlog resolving with ErrEvicted.
func (c *Controller) slotFault(s int, end sim.Time) {
	c.slotDown[s] = true
	if id := c.slotTenant[s]; id >= 0 {
		t := c.tenants[id]
		c.resolveFlush(t, ErrEvicted)
		if err := c.fab.Evict(s); err != nil {
			panic("tenant: slot fault evict: " + err.Error())
		}
		c.slotTenant[s] = -1
		t.Slot = -1
		t.State = StateQueued
		t.QueuedAt = c.eng.Now()
		t.leaseOver = false
		t.Evictions++
		c.Evictions++
		c.queue = append(c.queue, id)
	}
	c.eng.At(end, "tenant.evict.up", func() {
		c.slotDown[s] = false
		c.kick()
	})
}

// resolveFlush drains t's FIFO backlog, resolving every flushed
// request with err.
func (c *Controller) resolveFlush(t *Tenant, err error) {
	for _, it := range c.arb.Flush(t.Port) {
		c.resolve(it.Payload.(*request), err)
	}
}

// dispatch is the WFQ sink: the item won arbitration and enters the
// occupant slot's pipeline. A tenant displaced while the item held the
// bus resolves retryable instead.
func (c *Controller) dispatch(it fabric.Item) {
	rq := it.Payload.(*request)
	t := c.tenants[rq.id]
	if t.State != StateActive || t.Slot < 0 || c.slotDown[t.Slot] {
		c.resolve(rq, ErrEvicted)
		return
	}
	if err := c.fab.SubmitSpan(t.Slot, &rq.work, rq.span, rq); err != nil {
		c.resolve(rq, ErrEvicted)
	}
}

// request carries one in-flight tenant request through the WFQ and the
// slot pipeline, whose item it is (work) and whose Completer it is;
// instances cycle through the controller's free list (they hold no
// event refs), and work.Ctx keeps its capacity across recycling.
type request struct {
	c    *Controller
	id   int
	t0   sim.Time
	span telemetry.RequestID
	work fabric.Work
	done func(error)
}

func (c *Controller) getReq() *request {
	rq, fresh := c.reqs.Get()
	if fresh {
		rq.c = c
	}
	return rq
}

// Processed completes the request when its item leaves the slot: a
// result latency is recorded, or a faulted run resolves with the
// terminal ErrFaulted.
func (rq *request) Processed(w *fabric.Work) {
	c := rq.c
	if w.Err != nil {
		c.resolve(rq, fmt.Errorf("%w: %w", ErrFaulted, w.Err))
		return
	}
	t := c.tenants[rq.id]
	now := c.eng.Now()
	t.Lat.Record(now.Sub(rq.t0))
	t.Completed++
	if t.crec != nil {
		t.crec.Span("tenant", "request", rq.span, rq.t0, now)
	}
	done := rq.done
	rq.done = nil
	c.reqs.Put(rq)
	if done != nil {
		done(nil)
	}
}

func (c *Controller) resolve(rq *request, err error) {
	t := c.tenants[rq.id]
	if Retryable(err) {
		t.Retried++
	} else {
		t.Failed++
	}
	if t.crec != nil {
		t.crec.Count("tenant", "shed", 1)
	}
	done := rq.done
	rq.done = nil
	c.reqs.Put(rq)
	if done != nil {
		done(err)
	}
}
