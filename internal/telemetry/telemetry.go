// Package telemetry is the deterministic, sim-time span tracer and
// metrics plane for the Hyperion datapath. Every hardware model keeps
// a permanently-installed hook (a *Recorder field set via
// SetRecorder), mirroring internal/fault's plan hooks: when the
// recorder is nil the hooks are strictly free — no allocation, no rng
// or virtual-time consumption, no scheduled events — so disarmed runs
// are byte-identical to a build without the hooks. When armed, the
// recorder only appends to in-memory buffers keyed by sim time; it
// never schedules engine events and never draws randomness, so armed
// runs produce the exact same experiment tables as disarmed ones.
//
// A Recorder is a view (process id + shared sink); Child carves out a
// new Perfetto "process" for a scenario while sharing the event
// buffer, so one exported trace holds every scenario of a run.
package telemetry

import "hyperion/internal/sim"

// RequestID tags every span belonging to one logical request as it
// crosses layers. It travels alongside existing payloads (frames,
// fragments, NVMe commands, RPC envelopes). Zero means "untagged":
// infrastructure activity not attributable to a single request.
type RequestID uint64

// Event is one completed span: layer + name locate the stage, Req
// ties it to a request, Start/End are virtual timestamps. Seq is the
// record order, used as a deterministic sort tiebreak by the
// exporter.
type Event struct {
	Pid   int
	Layer string
	Name  string
	Req   RequestID
	Start sim.Time
	End   sim.Time
	Seq   uint64
}

// metricKey addresses one histogram or counter.
type metricKey struct {
	pid   int
	layer string
	name  string
}

type histEntry struct {
	key metricKey
	h   Histogram
}

type countEntry struct {
	key metricKey
	n   int64
}

// sink is the shared backing store for a recorder and all its
// children. Metric entries keep a creation-order slice beside the
// index map so every dump renders in deterministic order.
type sink struct {
	procs    []string
	events   []Event
	nextReq  uint64
	hists    []*histEntry
	histIdx  map[metricKey]int
	counts   []*countEntry
	countIdx map[metricKey]int
}

// Recorder collects spans, counters and latency histograms for one
// logical process (pid). All methods are nil-safe no-ops so call
// sites can stay unconditional; hot paths still guard with
// `if rec != nil` to keep argument evaluation off the disarmed path.
type Recorder struct {
	s   *sink
	pid int
}

// NewRecorder returns an armed recorder whose root process carries
// the given name.
func NewRecorder(name string) *Recorder {
	return &Recorder{
		s: &sink{
			procs:    []string{name},
			histIdx:  make(map[metricKey]int),
			countIdx: make(map[metricKey]int),
		},
	}
}

// Child returns a recorder for a new named process sharing this
// recorder's sink — one Perfetto process row per scenario. Child of a
// nil recorder is nil, so disarmed harnesses thread children for
// free.
func (r *Recorder) Child(name string) *Recorder {
	if r == nil {
		return nil
	}
	r.s.procs = append(r.s.procs, name)
	return &Recorder{s: r.s, pid: len(r.s.procs) - 1}
}

// NewRequest allocates the next request id. Ids are global across
// children so a request keeps its identity when it crosses process
// boundaries. Returns 0 (untagged) when disarmed.
func (r *Recorder) NewRequest() RequestID {
	if r == nil {
		return 0
	}
	r.s.nextReq++
	return RequestID(r.s.nextReq)
}

// Span records a completed [start,end] interval for a stage and
// folds its duration into the (layer,name) latency histogram.
func (r *Recorder) Span(layer, name string, req RequestID, start, end sim.Time) {
	if r == nil {
		return
	}
	s := r.s
	s.events = append(s.events, Event{
		Pid:   r.pid,
		Layer: layer,
		Name:  name,
		Req:   req,
		Start: start,
		End:   end,
		Seq:   uint64(len(s.events)),
	})
	r.Observe(layer, name, end.Sub(start))
}

// Observe folds a duration into the (layer,name) histogram without
// emitting a span.
func (r *Recorder) Observe(layer, name string, d sim.Duration) {
	if r == nil {
		return
	}
	k := metricKey{r.pid, layer, name}
	s := r.s
	i, ok := s.histIdx[k]
	if !ok {
		i = len(s.hists)
		s.hists = append(s.hists, &histEntry{key: k})
		s.histIdx[k] = i
	}
	s.hists[i].h.Observe(d)
}

// Count adds n to the (layer,name) counter.
func (r *Recorder) Count(layer, name string, n int64) {
	if r == nil {
		return
	}
	k := metricKey{r.pid, layer, name}
	s := r.s
	i, ok := s.countIdx[k]
	if !ok {
		i = len(s.counts)
		s.counts = append(s.counts, &countEntry{key: k})
		s.countIdx[k] = i
	}
	s.counts[i].n += n
}

// Hist returns this process's (layer,name) latency histogram, or nil
// when disarmed or when nothing has been observed under that key. Tests
// compare recorded span histograms through it; dumps go through
// HistogramDump.
func (r *Recorder) Hist(layer, name string) *Histogram {
	if r == nil {
		return nil
	}
	k := metricKey{r.pid, layer, name}
	i, ok := r.s.histIdx[k]
	if !ok {
		return nil
	}
	return &r.s.hists[i].h
}

// Events returns the number of spans recorded so far (0 when
// disarmed).
func (r *Recorder) Events() int {
	if r == nil {
		return 0
	}
	return len(r.s.events)
}

// MergeInto folds this recorder's entire sink — processes, spans,
// histograms, counters, request-id space — into dst, in a fully
// deterministic way: src processes are appended to dst in creation
// order (pids remapped), spans are re-sequenced after dst's existing
// events, and src request ids are offset past dst's so identities stay
// distinct. Merging per-shard recorders shard 0..N-1 therefore yields
// the same dump regardless of how work was split across shards, as
// long as each shard recorded its own work in deterministic order.
// MergeInto of or into a nil recorder is a no-op; merging a recorder
// into itself panics.
func (r *Recorder) MergeInto(dst *Recorder) {
	if r == nil || dst == nil {
		return
	}
	if r.s == dst.s {
		panic("telemetry: MergeInto on recorders sharing a sink")
	}
	s, d := r.s, dst.s
	pidBase := len(d.procs)
	d.procs = append(d.procs, s.procs...)
	reqBase := d.nextReq
	for _, ev := range s.events {
		ev.Pid += pidBase
		if ev.Req != 0 {
			ev.Req += RequestID(reqBase)
		}
		ev.Seq = uint64(len(d.events))
		d.events = append(d.events, ev)
	}
	d.nextReq += s.nextReq
	for _, he := range s.hists {
		k := metricKey{he.key.pid + pidBase, he.key.layer, he.key.name}
		i, ok := d.histIdx[k]
		if !ok {
			i = len(d.hists)
			d.hists = append(d.hists, &histEntry{key: k})
			d.histIdx[k] = i
		}
		d.hists[i].h.Merge(&he.h)
	}
	for _, ce := range s.counts {
		k := metricKey{ce.key.pid + pidBase, ce.key.layer, ce.key.name}
		i, ok := d.countIdx[k]
		if !ok {
			i = len(d.counts)
			d.counts = append(d.counts, &countEntry{key: k})
			d.countIdx[k] = i
		}
		d.counts[i].n += ce.n
	}
}
