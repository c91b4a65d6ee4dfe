// Package fail2ban is the paper's first pure-Hyperion workload (§2.4): a
// high-volume network middleware that filters brute-force attackers at
// line rate. The per-packet logic is a verified eBPF program compiled
// into a fabric slot: it checks a ban map, counts authentication
// failures per source, and bans sources that cross the threshold. Ban
// events and counters persist to the DPU's attached SSDs through the
// segment store — the traffic-proportional state that motivates pairing
// the middlebox with storage.
package fail2ban

import (
	"encoding/binary"
	"fmt"

	"hyperion/internal/core"
	"hyperion/internal/ebpf"
	"hyperion/internal/ehdl"
	"hyperion/internal/seg"
	"hyperion/internal/trace"
)

// Verdicts returned by the packet program.
const (
	VerdictPass   = 0
	VerdictDrop   = 1
	VerdictBanned = 2 // this packet triggered a new ban
)

// Filter is a deployed fail2ban instance.
type Filter struct {
	dpu       *core.DPU
	slot      int
	pipe      *ehdl.Pipeline
	bans      ebpf.Map
	logID     seg.ObjectID
	logOff    int64
	view      *seg.SyncView // BannedSources' reads; made on first use
	Threshold int

	Passed, Dropped, Banned int64
}

// logEntrySize is one persisted ban record: srcIP(4) pad(4) time(8).
const logEntrySize = 16

// logCapacity bounds the persistent ban log object.
const logCapacity = 1 << 20

// bansMapID is filter_prog.go's "//hyperion:map bans" id.
const bansMapID = 0

// NewPipeline compiles a fresh, self-contained filter instance — the
// gofront-compiled program plus the ban and failure-count maps its
// source declares — into an eHDL pipeline authorized by authTag. Each
// call returns independent state, so the tenant plane can run one
// filter instance per tenant in separate slots.
func NewPipeline(name, authTag string, threshold int) (*ehdl.Pipeline, error) {
	prog, pipe, err := ehdl.CompileSource(filterFile, filterSource, filterConsts(threshold), name, authTag)
	if err != nil {
		return nil, fmt.Errorf("fail2ban: compiling filter: %w", err)
	}
	if err := checkCtxSize(prog); err != nil {
		return nil, err
	}
	return pipe, nil
}

// Deploy compiles the filter, loads it into a fabric slot, and
// allocates the persistent ban log. done fires when the slot is active.
func Deploy(d *core.DPU, slot, threshold int, done func()) (*Filter, error) {
	pipe, err := NewPipeline("fail2ban", d.Cfg.AuthTag, threshold)
	if err != nil {
		return nil, err
	}
	bans, err := pipe.VM().Maps.Get(bansMapID)
	if err != nil {
		return nil, err
	}
	f := &Filter{dpu: d, slot: slot, pipe: pipe, bans: bans,
		Threshold: threshold, logID: seg.OID(0xFA12, 1)}
	if _, err := d.Store.Alloc(f.logID, logCapacity, true, seg.HintAuto); err != nil {
		return nil, err
	}
	if err := d.LoadAccelerator(slot, pipe.Bitstream(), done); err != nil {
		return nil, err
	}
	return f, nil
}

// Process runs one packet through the slot. verdict receives the
// program's decision after the pipeline latency. A new ban's log
// record is written fire-and-forget: verdict fires before that write
// completes.
func (f *Filter) Process(p trace.Packet, verdict func(v int)) error {
	ctx := p.Marshal()
	return f.dpu.Submit(f.slot, ctx, func(out any) {
		res, ok := out.(*ehdl.Result)
		if !ok || res.Err != nil {
			verdict(VerdictDrop)
			return
		}
		v := int(res.Ret)
		switch v {
		case VerdictPass:
			f.Passed++
		case VerdictDrop:
			f.Dropped++
		case VerdictBanned:
			f.Dropped++
			f.Banned++
			f.persistBan(p.SrcIP)
		}
		verdict(v)
	})
}

// persistBan appends a ban record to the durable log.
func (f *Filter) persistBan(src uint32) {
	if f.logOff+logEntrySize > logCapacity {
		return // log full; real deployment would rotate
	}
	rec := make([]byte, logEntrySize)
	binary.LittleEndian.PutUint32(rec, src)
	binary.LittleEndian.PutUint64(rec[8:], uint64(f.dpu.Eng.Now()))
	off := f.logOff
	f.logOff += logEntrySize
	f.dpu.Store.Write(f.logID, off, rec, nil)
}

// BannedSources reads the persistent ban log back synchronously
// (control-plane use). A ban write still queued is not in the log yet,
// so callers drain the engine first. The read goes through the
// filter's own view, leaving no cost on the DPU's shared one.
func (f *Filter) BannedSources() ([]uint32, error) {
	n := f.logOff / logEntrySize
	if n == 0 {
		return nil, nil
	}
	if f.view == nil {
		f.view = seg.NewSyncView(f.dpu.Store)
	}
	data, err := f.view.ReadAt(f.logID, 0, f.logOff)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, 0, n)
	for i := int64(0); i < n; i++ {
		out = append(out, binary.LittleEndian.Uint32(data[i*logEntrySize:]))
	}
	return out, nil
}

// IsBanned checks the ban map directly (control plane).
func (f *Filter) IsBanned(src uint32) bool {
	var key [4]byte
	binary.LittleEndian.PutUint32(key[:], src)
	_, ok := f.bans.Lookup(key[:])
	return ok
}

// Pipeline exposes compile statistics.
func (f *Filter) Pipeline() *ehdl.Pipeline { return f.pipe }
