// Package fault is the deterministic fault-injection plane for the
// simulator. Each layer that can fail (netsim, nvme, cluster, tenant)
// accepts a *Plan and consults it at well-defined injection
// points. A Plan is seeded from the experiment seed plus the layer
// name, so the same seed always injects the same faults at the same
// virtual times — chaos runs replay byte-identically.
//
// Determinism contract (see DESIGN.md §11):
//
//   - All randomness comes from sim.Rand; no wall clock, no math/rand.
//   - A nil Plan, and a Plan whose probability for a Kind is zero, is a
//     strict no-op: Roll returns false without consuming generator
//     state, so a zero-rate chaos run is bit-identical to a run with no
//     plan installed at all.
//   - Injection decisions are made at event-execution time in each
//     layer's own deterministic order, never from map iteration.
package fault

import "hyperion/internal/sim"

// Kind enumerates the fault classes the plane can inject. Each hooked
// layer consults the kinds that make sense for it and ignores the rest.
type Kind uint8

const (
	// Drop discards a frame at the switch.
	Drop Kind = iota
	// Corrupt delivers a frame whose payload failed its integrity
	// check (the NIC counts and discards it).
	Corrupt
	// Reorder delays one frame past its successors.
	Reorder
	// MediaErr fails an NVMe command with a media/internal error.
	MediaErr
	// Timeout swallows an NVMe command: it is consumed but never
	// completes, exercising host-side deadlines.
	Timeout
	// Crash takes a cluster node down for a restart window.
	Crash
	// Evict force-clears a fabric slot mid-flight: the tenant plane's
	// config engine loses the region (SEU scrub, PR region fault) and
	// must reschedule the occupant.
	Evict

	numKinds
)

var kindNames = [numKinds]string{
	"drop", "corrupt", "reorder", "media_err", "timeout", "crash", "evict",
}

// String names the kind for counters and tables.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// Plan is one layer's fault schedule: a seeded generator plus a
// probability per Kind. The zero probability for every kind (or a nil
// *Plan) disables injection entirely.
type Plan struct {
	layer string
	rng   *sim.Rand
	prob  [numKinds]float64
	count [numKinds]uint64
}

// fnv1a hashes the layer name so plans for different layers derived
// from the same experiment seed draw independent streams.
func fnv1a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// NewPlan derives a layer's plan from the experiment seed. All
// probabilities start at zero; chain Set calls to arm kinds.
func NewPlan(seed uint64, layer string) *Plan {
	return &Plan{layer: layer, rng: sim.NewRand(seed ^ fnv1a(layer))}
}

// NewPlanIndexed derives a plan for the idx-th instance of a layer
// (box 3's NVMe device, shard 2's fabric...). NewPlan keys the rng
// stream on the layer *name* alone, so giving several instances the
// same name would hand them correlated — in fact identical — fault
// streams; mixing the index in keeps instance streams independent
// while remaining a pure function of (seed, layer, idx), independent
// of how instances are laid out across cluster shards.
func NewPlanIndexed(seed uint64, layer string, idx int) *Plan {
	return &Plan{
		layer: layer,
		rng:   sim.NewRand(seed ^ fnv1a(layer) ^ (0x9e3779b97f4a7c15 * (uint64(idx) + 1))),
	}
}

// Set arms a kind with probability prob (clamped to [0, 1]) and
// returns the plan for chaining.
func (p *Plan) Set(k Kind, prob float64) *Plan {
	if prob < 0 {
		prob = 0
	}
	if prob > 1 {
		prob = 1
	}
	p.prob[k] = prob
	return p
}

// Roll decides whether to inject one fault of the given kind. It is
// nil-safe, and when the kind's probability is zero it returns false
// WITHOUT consuming generator state — the strict-no-op guarantee that
// keeps zero-rate plans bit-identical to no plan at all.
func (p *Plan) Roll(k Kind) bool {
	if p == nil || p.prob[k] == 0 {
		return false
	}
	if p.rng.Float64() >= p.prob[k] {
		return false
	}
	p.count[k]++
	return true
}

// Delay draws a uniform duration in [lo, hi] from the plan's stream,
// for layers that need a fault-specific delay (e.g. reorder slip).
// Call it only after a successful Roll so disabled plans stay no-ops.
func (p *Plan) Delay(lo, hi sim.Duration) sim.Duration {
	return p.rng.Duration(lo, hi)
}

// Pick draws a uniform index in [0, n) from the plan's stream, for
// layers that need a fault target (e.g. which node to crash).
// Call it only after a successful Roll so disabled plans stay no-ops.
func (p *Plan) Pick(n int) int {
	if n <= 1 {
		return 0
	}
	return p.rng.Intn(n)
}

// Count reports how many faults of a kind the plan has injected.
func (p *Plan) Count(k Kind) uint64 {
	if p == nil {
		return 0
	}
	return p.count[k]
}

// Window is one scheduled outage: the entity is down in [Start, End).
type Window struct {
	Start, End sim.Time
}

// Windows precomputes a bounded outage schedule for kinds that model
// down/up cycles (Crash). Up periods are exponentially
// distributed with mean meanUp; each outage lasts downFor. Generation
// stops at horizon, so schedulers installing the windows as engine
// events never keep an engine alive forever. A nil plan or a zero
// probability for the kind yields no windows and consumes no state.
func (p *Plan) Windows(k Kind, horizon sim.Time, meanUp, downFor sim.Duration) []Window {
	if p == nil || p.prob[k] == 0 || meanUp <= 0 || downFor <= 0 {
		return nil
	}
	var ws []Window
	t := sim.Time(0)
	for {
		t += sim.Time(p.rng.Exp(meanUp))
		if t >= horizon {
			return ws
		}
		ws = append(ws, Window{Start: t, End: t + sim.Time(downFor)})
		p.count[k]++
		t += sim.Time(downFor)
	}
}
