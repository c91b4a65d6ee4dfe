// Package tenant is the multi-tenant control plane over the fabric's
// partial-reconfiguration model: an admission controller plus a slot
// scheduler, so N tenants with distinct offloads, weights, and SLOs
// share one CPU-free box (the paper's Figure 2 config engine, driven
// at production multiplicity).
//
// A tenant arrives with a compiled offload (a gofront program or eHDL
// image packaged as a *fabric.Bitstream — the bitstream size fixes its
// reconfiguration latency through fabric.ReconfigTime), a weight, and
// an SLO. Admission checks the image against a per-slot resource
// budget and a port-capacity cap; admitted tenants wait in a FIFO for
// a free slot, time-share slots under an optional lease, and send
// their traffic through a deficit-round-robin weighted-fair arbiter
// onto the slot pipelines. The fault plane can evict slots mid-flight;
// victims are requeued and their in-FIFO requests resolve to a
// retryable error, never a hang.
//
// Scheduling invariants (pinned by the property tests):
//
//   - Conservation: every admitted, non-departed tenant either holds
//     exactly one slot (Reconfiguring/Active) or sits exactly once in
//     the wait queue — never both, never neither.
//   - Exclusivity: no two tenants ever map to one slot.
//   - Bounded wait: with a positive lease every queued tenant with a
//     positive weight is placed within a bounded amount of sim-time
//     (FIFO queue + bounded lease + bounded reconfiguration).
package tenant

import (
	"errors"

	"hyperion/internal/fabric"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// SLO is a tenant's service-level objective. Zero fields are
// unconstrained.
type SLO struct {
	P99     sim.Duration // per-request latency objective (submit to completion)
	Goodput float64      // completed ops/sec floor over the measurement window
}

// Spec is everything a tenant presents at admission.
type Spec struct {
	Name   string // pure label: must never influence scheduling
	Weight int    // DRR quantum in bus beats, [1, maxWeight]
	Image  *fabric.Bitstream
	SLO    SLO
}

// State is a tenant's scheduling lifecycle.
type State int

const (
	StateQueued State = iota
	StateReconfiguring
	StateActive
	StateDeparted
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateReconfiguring:
		return "reconfiguring"
	case StateActive:
		return "active"
	case StateDeparted:
		return "departed"
	}
	return "invalid"
}

// Errors returned by the control plane. Retryable classifies them the
// way a client would: retryable errors mean the request was shed by
// scheduling (eviction, preemption, backpressure) and may be resent;
// the rest are terminal.
var (
	ErrRejected  = errors.New("tenant: admission rejected")
	ErrBadSpec   = errors.New("tenant: invalid spec")
	ErrUnknown   = errors.New("tenant: unknown tenant id")
	ErrNotActive = errors.New("tenant: not active (queued or reconfiguring)")
	ErrEvicted   = errors.New("tenant: slot evicted mid-flight")
	ErrPreempted = errors.New("tenant: preempted at lease expiry")
	ErrDeparted  = errors.New("tenant: departed with requests in flight")
	ErrFaulted   = errors.New("tenant: slot image faulted on the request")
)

// Retryable reports whether a request that failed with err may be
// retried against the same tenant.
func Retryable(err error) bool {
	return errors.Is(err, ErrNotActive) || errors.Is(err, ErrEvicted) ||
		errors.Is(err, ErrPreempted) || errors.Is(err, fabric.ErrStreamFull)
}

// Tenant is the controller's book of record for one admitted tenant.
type Tenant struct {
	ID    int
	Spec  Spec
	State State
	Slot  int // occupied slot, or -1
	Port  int // WFQ input port

	QueuedAt    sim.Time     // last transition into StateQueued
	ActivatedAt sim.Time     // last transition into StateActive
	MaxWait     sim.Duration // longest queued-to-placed wait observed

	Placements  int64 // times placed into a slot (= lease generation)
	Preemptions int64 // lease-expiry displacements
	Evictions   int64 // fault-plane displacements

	Submitted int64 // requests accepted into the WFQ FIFO
	Completed int64 // requests that returned a result
	Retried   int64 // requests resolved with a retryable error
	Failed    int64 // requests resolved with a terminal error
	NotActive int64 // submit-time rejections (tenant had no slot)
	Shed      int64 // submit-time backpressure (FIFO full)

	Lat sim.LatencyRecorder // submit-to-completion latency

	leaseOver bool   // lease expired with an empty queue; evict on demand
	leaseName string // precomputed lease event name
	crec      *telemetry.Recorder
}

// Row is one tenant's line in the SLO report.
type Row struct {
	Name        string
	Weight      int
	State       string
	Placements  int64
	Preemptions int64
	Evictions   int64
	Submitted   int64
	Completed   int64
	Retryable   int64 // Retried + NotActive + Shed
	Failed      int64
	P50, P99    sim.Duration
	GoodputOPS  float64
	ViolLat     bool // P99 objective missed
	ViolGood    bool // goodput floor missed
}
