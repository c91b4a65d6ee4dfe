// Package lsm implements a log-structured merge tree over the segment
// store: an in-memory memtable flushed into sorted-run objects, with
// size-tiered compaction across levels.
// Together with the B+ tree it forms the reusable core storage
// abstraction set the paper's §4 lists (B+, LSM) — and the backend pair
// the KV experiments ablate.
package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"hyperion/internal/seg"
)

// Tuning. Runs per level before compaction into the next level; memtable
// capacity in entries.
const (
	DefaultMemtableCap = 4096
	RunsPerLevel       = 4
	MaxLevels          = 8
)

// entryBytes: key(8) + val(8) + a flag byte written as 0, padded to 20
// for alignment.
const entryBytes = 20

const manifestMagic = 0x4c534d31 // "LSM1"

// Errors.
var ErrCorrupt = errors.New("lsm: corrupt structure")

// Tree is an LSM tree handle (single-writer, run-to-completion).
type Tree struct {
	v       *seg.SyncView
	meta    seg.ObjectID
	durable bool
	memCap  int

	mem    map[uint64]uint64
	levels [][]run // levels[0] newest-first runs
	nextLo uint64

	// Stats for the ablation benches.
	Flushes, Compactions int64
	EntriesWrittenToRuns int64 // total entries written into run objects
	LogicalWrites        int64 // Put count
}

type run struct {
	id     seg.ObjectID
	count  int
	minKey uint64
	maxKey uint64
}

// Create initializes a new tree with metadata at metaID.
func Create(v *seg.SyncView, metaID seg.ObjectID, durable bool, memCap int) (*Tree, error) {
	if memCap <= 0 {
		memCap = DefaultMemtableCap
	}
	t := &Tree{
		v: v, meta: metaID, durable: durable, memCap: memCap,
		mem: make(map[uint64]uint64), levels: make([][]run, MaxLevels),
		nextLo: metaID.Lo + 1,
	}
	if _, err := v.Alloc(metaID, 8192, durable, seg.HintAuto); err != nil {
		return nil, err
	}
	return t, t.writeManifest()
}

// Open loads an existing tree (memtable contents are lost on restart by
// design; durability comes from flushed runs).
func Open(v *seg.SyncView, metaID seg.ObjectID) (*Tree, error) {
	t := &Tree{v: v, meta: metaID, mem: make(map[uint64]uint64), levels: make([][]run, MaxLevels)}
	buf, err := v.ReadAt(metaID, 0, 8192)
	if err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(buf[0:]) != manifestMagic {
		return nil, fmt.Errorf("%w: bad manifest magic", ErrCorrupt)
	}
	t.durable = buf[4] == 1
	t.memCap = int(binary.LittleEndian.Uint32(buf[8:]))
	t.nextLo = binary.LittleEndian.Uint64(buf[16:])
	off := 24
	for l := 0; l < MaxLevels; l++ {
		n := int(binary.LittleEndian.Uint16(buf[off:]))
		off += 2
		// writeManifest's bound, which leaves room for the next level's count.
		if off+n*36 > len(buf)-40 {
			return nil, fmt.Errorf("%w: level %d lists %d runs, past the manifest", ErrCorrupt, l, n)
		}
		for i := 0; i < n; i++ {
			r := run{
				id:     seg.DecodeID(buf[off:]),
				count:  int(binary.LittleEndian.Uint32(buf[off+16:])),
				minKey: binary.LittleEndian.Uint64(buf[off+20:]),
				maxKey: binary.LittleEndian.Uint64(buf[off+28:]),
			}
			t.levels[l] = append(t.levels[l], r)
			off += 36
		}
	}
	return t, nil
}

func (t *Tree) writeManifest() error {
	buf := make([]byte, 8192)
	binary.LittleEndian.PutUint32(buf[0:], manifestMagic)
	if t.durable {
		buf[4] = 1
	}
	binary.LittleEndian.PutUint32(buf[8:], uint32(t.memCap))
	binary.LittleEndian.PutUint64(buf[16:], t.nextLo)
	off := 24
	for l := 0; l < MaxLevels; l++ {
		binary.LittleEndian.PutUint16(buf[off:], uint16(len(t.levels[l])))
		off += 2
		for _, r := range t.levels[l] {
			r.id.EncodeTo(buf[off:])
			binary.LittleEndian.PutUint32(buf[off+16:], uint32(r.count))
			binary.LittleEndian.PutUint64(buf[off+20:], r.minKey)
			binary.LittleEndian.PutUint64(buf[off+28:], r.maxKey)
			off += 36
			if off > len(buf)-40 {
				return fmt.Errorf("%w: manifest overflow", ErrCorrupt)
			}
		}
	}
	return t.v.WriteAt(t.meta, 0, buf)
}

// Put inserts or replaces key → val.
func (t *Tree) Put(key, val uint64) error {
	t.LogicalWrites++
	t.mem[key] = val
	if len(t.mem) >= t.memCap {
		return t.Flush()
	}
	return nil
}

// Get looks key up: memtable first, then runs newest-to-oldest.
func (t *Tree) Get(key uint64) (uint64, bool, error) {
	if val, ok := t.mem[key]; ok {
		return val, true, nil
	}
	for l := 0; l < MaxLevels; l++ {
		for _, r := range t.levels[l] {
			if key < r.minKey || key > r.maxKey {
				continue
			}
			val, found, err := t.searchRun(r, key)
			if err != nil || found {
				return val, found, err
			}
		}
	}
	return 0, false, nil
}

type entry struct{ key, val uint64 }

// Flush writes the memtable as a new L0 run.
func (t *Tree) Flush() error {
	if len(t.mem) == 0 {
		return nil
	}
	entries := make([]entry, 0, len(t.mem))
	for k, val := range t.mem {
		entries = append(entries, entry{key: k, val: val})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	r, err := t.writeRun(entries)
	if err != nil {
		return err
	}
	// Newest first.
	t.levels[0] = append([]run{r}, t.levels[0]...)
	t.mem = make(map[uint64]uint64)
	t.Flushes++
	if err := t.maybeCompact(); err != nil {
		return err
	}
	return t.writeManifest()
}

func (t *Tree) writeRun(entries []entry) (run, error) {
	id := seg.ObjectID{Hi: t.meta.Hi, Lo: t.nextLo}
	t.nextLo++
	size := int64(16 + len(entries)*entryBytes)
	if _, err := t.v.Alloc(id, size, t.durable, seg.HintAuto); err != nil {
		return run{}, err
	}
	buf := make([]byte, size)
	binary.LittleEndian.PutUint64(buf[0:], uint64(len(entries)))
	off := 16
	for _, e := range entries {
		binary.LittleEndian.PutUint64(buf[off:], e.key)
		binary.LittleEndian.PutUint64(buf[off+8:], e.val)
		off += entryBytes
	}
	if err := t.v.WriteAt(id, 0, buf); err != nil {
		return run{}, err
	}
	t.EntriesWrittenToRuns += int64(len(entries))
	return run{id: id, count: len(entries), minKey: entries[0].key, maxKey: entries[len(entries)-1].key}, nil
}

func (t *Tree) readRun(r run) ([]entry, error) {
	size := int64(16 + r.count*entryBytes)
	buf, err := t.v.ReadAt(r.id, 0, size)
	if err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint64(buf[0:]))
	if n != r.count {
		return nil, fmt.Errorf("%w: run count %d != manifest %d", ErrCorrupt, n, r.count)
	}
	out := make([]entry, n)
	off := 16
	for i := range out {
		out[i] = entry{key: binary.LittleEndian.Uint64(buf[off:]), val: binary.LittleEndian.Uint64(buf[off+8:])}
		off += entryBytes
	}
	return out, nil
}

// searchRun binary-searches one run for key, reading only the pages it
// touches (charged through the view at page granularity).
func (t *Tree) searchRun(r run, key uint64) (val uint64, found bool, err error) {
	lo, hi := 0, r.count-1
	for lo <= hi {
		mid := (lo + hi) / 2
		e, rerr := t.readEntry(r, mid)
		if rerr != nil {
			return 0, false, rerr
		}
		switch {
		case e.key == key:
			return e.val, true, nil
		case e.key < key:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return 0, false, nil
}

func (t *Tree) readEntry(r run, i int) (entry, error) {
	buf, err := t.v.ReadAt(r.id, int64(16+i*entryBytes), entryBytes)
	if err != nil {
		return entry{}, err
	}
	return entry{key: binary.LittleEndian.Uint64(buf[0:]), val: binary.LittleEndian.Uint64(buf[8:])}, nil
}

// maybeCompact merges levels that exceed RunsPerLevel into the next
// level (size-tiered policy).
func (t *Tree) maybeCompact() error {
	for l := 0; l < MaxLevels-1; l++ {
		if len(t.levels[l]) < RunsPerLevel {
			continue
		}
		// Merge all runs of level l plus all of level l+1 into one run.
		var sources []run
		sources = append(sources, t.levels[l]...)   // newest first
		sources = append(sources, t.levels[l+1]...) // older
		merged, err := t.mergeRuns(sources)
		if err != nil {
			return err
		}
		for _, r := range sources {
			if err := t.v.Free(r.id); err != nil {
				return err
			}
		}
		t.levels[l] = nil
		t.levels[l+1] = []run{merged}
		t.Compactions++
	}
	return nil
}

// mergeRuns performs an n-way merge of non-empty runs; for equal keys
// the earliest source (newest) wins.
func (t *Tree) mergeRuns(sources []run) (run, error) {
	lists := make([][]entry, len(sources))
	for i, r := range sources {
		es, err := t.readRun(r)
		if err != nil {
			return run{}, err
		}
		lists[i] = es
	}
	idx := make([]int, len(lists))
	var out []entry
	for {
		best := -1
		var bestKey uint64
		for i := range lists {
			if idx[i] >= len(lists[i]) {
				continue
			}
			k := lists[i][idx[i]].key
			if best < 0 || k < bestKey {
				best, bestKey = i, k
			}
		}
		if best < 0 {
			break
		}
		e := lists[best][idx[best]]
		// Consume this key from every list; the newest (lowest index)
		// occurrence wins.
		winner := e
		winnerSrc := best
		for i := range lists {
			for idx[i] < len(lists[i]) && lists[i][idx[i]].key == bestKey {
				if i < winnerSrc {
					winner = lists[i][idx[i]]
					winnerSrc = i
				}
				idx[i]++
			}
		}
		out = append(out, winner)
	}
	return t.writeRun(out)
}

// Scan visits keys in [from, to) in order through a merge of the
// memtable and all runs.
func (t *Tree) Scan(from, to uint64, fn func(key, val uint64) bool) error {
	// Materialize the visible view (fine at experiment scales).
	visible := make(map[uint64]uint64)
	for l := MaxLevels - 1; l >= 0; l-- {
		for i := len(t.levels[l]) - 1; i >= 0; i-- {
			es, err := t.readRun(t.levels[l][i])
			if err != nil {
				return err
			}
			for _, e := range es {
				visible[e.key] = e.val
			}
		}
	}
	for k, val := range t.mem {
		visible[k] = val
	}
	keys := make([]uint64, 0, len(visible))
	for k := range visible {
		if k >= from && k < to {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if !fn(k, visible[k]) {
			return nil
		}
	}
	return nil
}
