// Package eventref is hyperlint golden-test input: EventRef handle
// discipline against the real hyperion/internal/sim API.
package eventref

import "hyperion/internal/sim"

var globalTimer sim.EventRef

type dev struct {
	eng   *sim.Engine
	timer sim.EventRef
}

func (d *dev) armGlobal() {
	globalTimer = d.eng.After(5*sim.Nanosecond, "tick", func() {}) // want `package-level var globalTimer`
}

func (d *dev) badCancel() {
	d.eng.Cancel(d.timer) // want `cancelled ref d\.timer is left set`
}

func (d *dev) goodCancel() {
	d.eng.Cancel(d.timer)
	d.timer = sim.NoEvent
}

func (d *dev) rearm() {
	d.eng.Cancel(d.timer)
	d.timer = d.eng.After(sim.Microsecond, "tick", func() {})
}

func (d *dev) branchReset(hard bool) {
	d.eng.Cancel(d.timer)
	if hard {
		d.timer = sim.NoEvent
	}
}

func (d *dev) localCancel(ref sim.EventRef) {
	d.eng.Cancel(ref) // locals die with the scope: no finding
}

func (d *dev) compare(a, b sim.EventRef) bool {
	if a == sim.NoEvent { // want `hand-rolled generation check`
		return false
	}
	return a != b // want `hand-rolled generation check`
}

func valid(a sim.EventRef) bool {
	return a.Valid() // the sanctioned liveness probe
}

func alias(r sim.EventRef) *sim.EventRef { // want `never alias them through a pointer`
	return &r // want `never alias them through a pointer`
}

func (d *dev) suppressedCompare(a sim.EventRef) bool {
	//hyperlint:allow(eventref) golden test: zero-ref comparison is deliberate here
	return a == sim.NoEvent
}

// Pooled-object recycle hazards: sim.FreeList puts and prebound timer
// callbacks.

type pooledOp struct {
	eng     *sim.Engine
	timer   sim.EventRef
	retryFn func()
}

type opOwner struct {
	ops sim.FreeList[pooledOp]
}

func (h *opOwner) putUnreset(op *pooledOp) {
	h.ops.Put(op) // want `EventRef field timer unreset`
}

func (h *opOwner) putFieldReset(op *pooledOp) {
	op.timer = sim.NoEvent
	h.ops.Put(op)
}

func (h *opOwner) putWholeReset(op *pooledOp) {
	*op = pooledOp{eng: op.eng, retryFn: op.retryFn}
	h.ops.Put(op)
}

// A generic owner puts a type parameter, not a struct: T is only known
// where the owner is instantiated, so there is nothing to check here.
type genericOwner[T any] struct {
	ops sim.FreeList[T]
}

func (g *genericOwner[T]) put(op *T) { g.ops.Put(op) }

// handOp is pooled by hand: the recycle rules cannot see the list, so
// the list itself is the finding.
type handOp struct {
	timer sim.EventRef
}

type handOwner struct {
	opFree  []*handOp
	bufFree [][]byte
}

func (h *handOwner) put(op *handOp) {
	op.timer = sim.NoEvent
	h.opFree = append(h.opFree, op) // want `hand-rolled free list: use sim\.FreeList`
}

func (h *handOwner) putBuf(b []byte) {
	h.bufFree = append(h.bufFree, b) // not a *struct: no finding
}

func (op *pooledOp) tick() {}

func (op *pooledOp) rearmDiscardedField(d sim.Duration) {
	op.eng.After(d, "retry", op.retryFn) // want `callback op\.retryFn is prebound on pooled pooledOp`
}

func (op *pooledOp) rearmDiscardedMethodValue(d sim.Duration) {
	op.eng.After(d, "retry", op.tick) // want `callback op\.tick is prebound on pooled pooledOp`
}

func (op *pooledOp) rearmStored(d sim.Duration) {
	op.timer = op.eng.After(d, "retry", op.retryFn)
}

func (op *pooledOp) closureDiscardIsFine(d sim.Duration) {
	op.eng.After(d, "fire", func() {}) // fire-and-forget closure: no finding
}

// oneshot never cycles through a free list, so a discarded prebound
// callback cannot outlive its instance's identity.
type oneshot struct {
	eng *sim.Engine
	fn  func()
}

func (o *oneshot) fire(d sim.Duration) {
	o.eng.After(d, "fire", o.fn)
}
