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
	"hyperion/internal/fabric"
	"hyperion/internal/seg"
	"hyperion/internal/sim"
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
	pipe      *ehdl.Pipeline
	bans      ebpf.Map
	logID     seg.ObjectID
	logOff    int64
	view      *seg.SyncView // the ban log's writes and reads, costed apart from dpu.View
	pkts      sim.FreeList[packetCtx]
	logRec    [logEntrySize]byte // the ban record being written
	Threshold int

	Passed, Dropped, Banned int64
}

// logEntrySize is one persisted ban record: srcIP(4) pad(4) time(8).
const logEntrySize = 16

// logCapacity bounds the persistent ban log object.
const logCapacity = 1 << 20

// bansMapID is filter_prog.go's "//hyperion:map bans" id.
const bansMapID = 0

// Compile builds the filter for a ban threshold into an eHDL image
// authorized by authTag: the gofront-compiled program plus the ban and
// failure-count maps its source declares. Compile once per run; each
// img.Instance is an independent filter with its own maps, so the
// tenant plane runs one instance per tenant in separate slots.
func Compile(authTag string, threshold int) (*ehdl.Image, error) {
	prog, img, err := ehdl.CompileSource(filterFile, filterSource, filterConsts(threshold), authTag)
	if err != nil {
		return nil, fmt.Errorf("fail2ban: compiling filter: %w", err)
	}
	if err := checkCtxSize(prog); err != nil {
		return nil, err
	}
	return img, nil
}

// slot is the fabric slot a deployed filter occupies.
const slot = 0

// Deploy compiles the filter, loads an instance into the fabric slot,
// and allocates the persistent ban log.
func Deploy(d *core.DPU, threshold int) (*Filter, error) {
	img, err := Compile(d.Cfg.AuthTag, threshold)
	if err != nil {
		return nil, err
	}
	pipe := img.Instance("fail2ban")
	bans, err := pipe.VM().Maps.Get(bansMapID)
	if err != nil {
		return nil, err
	}
	f := &Filter{dpu: d, pipe: pipe, bans: bans,
		Threshold: threshold, logID: seg.OID(0xFA12, 1), view: seg.NewSyncView(d.Store)}
	if _, err := d.Store.Alloc(f.logID, logCapacity, true, seg.HintAuto); err != nil {
		return nil, err
	}
	if err := d.LoadAccelerator(slot, pipe.Bitstream(), nil); err != nil {
		return nil, err
	}
	return f, nil
}

// Process runs one packet through the slot. verdict receives the
// program's decision after the pipeline latency. A new ban's log
// record is written off the verdict path: its cost delays no verdict.
// The packet rides a pooled context, so steady-state filtering
// allocates nothing.
func (f *Filter) Process(p trace.Packet, verdict func(v int)) error {
	pc, fresh := f.pkts.Get()
	if fresh {
		pc.f = f
		pc.work.Ctx = pc.buf[:]
	}
	p.MarshalTo(pc.buf[:])
	pc.src, pc.verdict = p.SrcIP, verdict
	if err := f.dpu.Submit(slot, &pc.work, pc); err != nil {
		pc.verdict = nil
		f.pkts.Put(pc)
		return err
	}
	return nil
}

// packetCtx carries one packet through the filter's slot: work is the
// pipeline item, its Ctx the packet's own marshalled header, and the
// context is the item's Completer. Instances cycle through the
// filter's free list.
type packetCtx struct {
	f       *Filter
	work    fabric.Work
	buf     [trace.PacketBytes]byte
	src     uint32
	verdict func(v int)
}

// Processed takes the program's verdict on the packet.
func (pc *packetCtx) Processed(w *fabric.Work) {
	f, src, verdict := pc.f, pc.src, pc.verdict
	pc.verdict = nil
	f.pkts.Put(pc)
	if w.Err != nil {
		verdict(VerdictDrop)
		return
	}
	v := int(w.Ret)
	switch v {
	case VerdictPass:
		f.Passed++
	case VerdictDrop:
		f.Dropped++
	case VerdictBanned:
		f.Dropped++
		f.Banned++
		f.persistBan(src)
	}
	verdict(v)
}

// persistBan appends a ban record to the durable log. The write is
// synchronous; its modeled cost is taken and discarded.
func (f *Filter) persistBan(src uint32) {
	if f.logOff+logEntrySize > logCapacity {
		return // log full; real deployment would rotate
	}
	rec := f.logRec[:]
	binary.LittleEndian.PutUint32(rec, src)
	binary.LittleEndian.PutUint64(rec[8:], uint64(f.dpu.Eng.Now()))
	off := f.logOff
	f.logOff += logEntrySize
	if err := f.view.WriteAt(f.logID, off, rec); err != nil {
		panic(fmt.Sprintf("fail2ban: ban log write: %v", err)) // the log is allocated and the record in bounds
	}
	f.view.TakeCost()
}

// BannedSources reads the persistent ban log back synchronously
// (control-plane use) through the filter's own view, leaving no cost on
// the DPU's shared one.
func (f *Filter) BannedSources() ([]uint32, error) {
	n := f.logOff / logEntrySize
	if n == 0 {
		return nil, nil
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

// Pipeline exposes compile statistics.
func (f *Filter) Pipeline() *ehdl.Pipeline { return f.pipe }
