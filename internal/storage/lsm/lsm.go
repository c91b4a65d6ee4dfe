// Package lsm implements a log-structured merge tree over the segment
// store: an in-memory memtable flushed into sorted-run objects, with
// size-tiered compaction across levels and tombstone-based deletion.
// Together with the B+ tree it forms the reusable core storage
// abstraction set the paper's §4 lists (B+, LSM) — and the backend pair
// the KV experiments ablate.
package lsm

import (
	"errors"
	"fmt"
	"hyperion/internal/wire"
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

// entryBytes: key(8) + val(8) + flags(1), padded to 20 for alignment.
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

	mem    map[uint64]memVal
	levels [][]run // levels[0] newest-first runs
	nextLo uint64

	// Stats for the ablation benches.
	Flushes, Compactions int64
	EntriesWrittenToRuns int64 // total entries written into run objects
	LogicalWrites        int64 // Put/Delete count
}

type memVal struct {
	val       uint64
	tombstone bool
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
		mem: make(map[uint64]memVal), levels: make([][]run, MaxLevels),
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
	t := &Tree{v: v, meta: metaID, mem: make(map[uint64]memVal), levels: make([][]run, MaxLevels)}
	buf, err := v.ReadAt(metaID, 0, 8192)
	if err != nil {
		return nil, err
	}
	if wire.LE32At(buf, 0) != manifestMagic {
		return nil, fmt.Errorf("%w: bad manifest magic", ErrCorrupt)
	}
	t.durable = buf[4] == 1
	t.memCap = int(wire.LE32At(buf, 8))
	t.nextLo = wire.LE64At(buf, 16)
	off := 24
	for l := 0; l < MaxLevels; l++ {
		n := int(wire.LE16At(buf, off))
		off += 2
		// writeManifest's bound, which leaves room for the next level's count.
		if off+n*36 > len(buf)-40 {
			return nil, fmt.Errorf("%w: level %d lists %d runs, past the manifest", ErrCorrupt, l, n)
		}
		for i := 0; i < n; i++ {
			r := run{
				id:     seg.DecodeID(buf[off:]),
				count:  int(wire.LE32At(buf, off+16)),
				minKey: wire.LE64At(buf, off+20),
				maxKey: wire.LE64At(buf, off+28),
			}
			t.levels[l] = append(t.levels[l], r)
			off += 36
		}
	}
	return t, nil
}

func (t *Tree) writeManifest() error {
	buf := make([]byte, 8192)
	wire.PutLE32At(buf, 0, manifestMagic)
	if t.durable {
		buf[4] = 1
	}
	wire.PutLE32At(buf, 8, uint32(t.memCap))
	wire.PutLE64At(buf, 16, t.nextLo)
	off := 24
	for l := 0; l < MaxLevels; l++ {
		wire.PutLE16At(buf, off, uint16(len(t.levels[l])))
		off += 2
		for _, r := range t.levels[l] {
			r.id.EncodeTo(buf[off:])
			wire.PutLE32At(buf, off+16, uint32(r.count))
			wire.PutLE64At(buf, off+20, r.minKey)
			wire.PutLE64At(buf, off+28, r.maxKey)
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
	t.mem[key] = memVal{val: val}
	if len(t.mem) >= t.memCap {
		return t.Flush()
	}
	return nil
}

// Delete writes a tombstone.
func (t *Tree) Delete(key uint64) error {
	t.LogicalWrites++
	t.mem[key] = memVal{tombstone: true}
	if len(t.mem) >= t.memCap {
		return t.Flush()
	}
	return nil
}

// Get looks key up: memtable first, then runs newest-to-oldest.
func (t *Tree) Get(key uint64) (uint64, bool, error) {
	if mv, ok := t.mem[key]; ok {
		if mv.tombstone {
			return 0, false, nil
		}
		return mv.val, true, nil
	}
	for l := 0; l < MaxLevels; l++ {
		for _, r := range t.levels[l] {
			if key < r.minKey || key > r.maxKey {
				continue
			}
			val, tomb, found, err := t.searchRun(r, key)
			if err != nil {
				return 0, false, err
			}
			if found {
				if tomb {
					return 0, false, nil
				}
				return val, true, nil
			}
		}
	}
	return 0, false, nil
}

type entry struct {
	key, val  uint64
	tombstone bool
}

// Flush writes the memtable as a new L0 run.
func (t *Tree) Flush() error {
	if len(t.mem) == 0 {
		return nil
	}
	entries := make([]entry, 0, len(t.mem))
	for k, mv := range t.mem {
		entries = append(entries, entry{key: k, val: mv.val, tombstone: mv.tombstone})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	r, err := t.writeRun(entries)
	if err != nil {
		return err
	}
	// Newest first.
	t.levels[0] = append([]run{r}, t.levels[0]...)
	t.mem = make(map[uint64]memVal)
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
	wire.PutLE64At(buf, 0, uint64(len(entries)))
	off := 16
	for _, e := range entries {
		wire.PutLE64At(buf, off, e.key)
		wire.PutLE64At(buf, off+8, e.val)
		if e.tombstone {
			buf[off+16] = 1
		}
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
	n := int(wire.LE64At(buf, 0))
	if n != r.count {
		return nil, fmt.Errorf("%w: run count %d != manifest %d", ErrCorrupt, n, r.count)
	}
	out := make([]entry, n)
	off := 16
	for i := range out {
		out[i] = entry{
			key:       wire.LE64At(buf, off),
			val:       wire.LE64At(buf, off+8),
			tombstone: buf[off+16] == 1,
		}
		off += entryBytes
	}
	return out, nil
}

// searchRun binary-searches one run for key, reading only the pages it
// touches (charged through the view at page granularity).
func (t *Tree) searchRun(r run, key uint64) (val uint64, tombstone, found bool, err error) {
	lo, hi := 0, r.count-1
	for lo <= hi {
		mid := (lo + hi) / 2
		e, rerr := t.readEntry(r, mid)
		if rerr != nil {
			return 0, false, false, rerr
		}
		switch {
		case e.key == key:
			return e.val, e.tombstone, true, nil
		case e.key < key:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return 0, false, false, nil
}

func (t *Tree) readEntry(r run, i int) (entry, error) {
	buf, err := t.v.ReadAt(r.id, int64(16+i*entryBytes), entryBytes)
	if err != nil {
		return entry{}, err
	}
	return entry{
		key:       wire.LE64At(buf, 0),
		val:       wire.LE64At(buf, 8),
		tombstone: buf[16] == 1,
	}, nil
}

// maybeCompact merges levels that exceed RunsPerLevel into the next
// level (size-tiered policy). The bottom level drops tombstones.
func (t *Tree) maybeCompact() error {
	for l := 0; l < MaxLevels-1; l++ {
		if len(t.levels[l]) < RunsPerLevel {
			continue
		}
		// Merge all runs of level l plus all of level l+1 into one run.
		var sources []run
		sources = append(sources, t.levels[l]...)   // newest first
		sources = append(sources, t.levels[l+1]...) // older
		// Tombstones may be dropped only when nothing older exists below
		// the destination level.
		drop := true
		for j := l + 2; j < MaxLevels; j++ {
			if len(t.levels[j]) > 0 {
				drop = false
				break
			}
		}
		merged, err := t.mergeRuns(sources, drop)
		if err != nil {
			return err
		}
		for _, r := range sources {
			if err := t.v.Free(r.id); err != nil {
				return err
			}
		}
		t.levels[l] = nil
		if len(merged.idOrEmpty()) == 0 {
			t.levels[l+1] = nil
		} else {
			t.levels[l+1] = []run{merged.run}
		}
		t.Compactions++
	}
	return nil
}

type mergedRun struct {
	run   run
	empty bool
}

func (m mergedRun) idOrEmpty() []run {
	if m.empty {
		return nil
	}
	return []run{m.run}
}

// mergeRuns performs an n-way merge; for equal keys the earliest source
// (newest) wins. dropTombstones removes deletions when merging into the
// bottom.
func (t *Tree) mergeRuns(sources []run, dropTombstones bool) (mergedRun, error) {
	lists := make([][]entry, len(sources))
	for i, r := range sources {
		es, err := t.readRun(r)
		if err != nil {
			return mergedRun{}, err
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
		if dropTombstones && winner.tombstone {
			continue
		}
		out = append(out, winner)
	}
	if len(out) == 0 {
		return mergedRun{empty: true}, nil
	}
	r, err := t.writeRun(out)
	if err != nil {
		return mergedRun{}, err
	}
	return mergedRun{run: r}, nil
}

// Scan visits keys in [from, to) in order through a merge of the
// memtable and all runs.
func (t *Tree) Scan(from, to uint64, fn func(key, val uint64) bool) error {
	// Materialize the visible view (fine at experiment scales).
	visible := make(map[uint64]memVal)
	for l := MaxLevels - 1; l >= 0; l-- {
		for i := len(t.levels[l]) - 1; i >= 0; i-- {
			es, err := t.readRun(t.levels[l][i])
			if err != nil {
				return err
			}
			for _, e := range es {
				visible[e.key] = memVal{val: e.val, tombstone: e.tombstone}
			}
		}
	}
	for k, mv := range t.mem {
		visible[k] = mv
	}
	keys := make([]uint64, 0, len(visible))
	for k := range visible {
		if k >= from && k < to && !visible[k].tombstone {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if !fn(k, visible[k].val) {
			return nil
		}
	}
	return nil
}

// Runs reports the current run count per level (for tests/benches).
func (t *Tree) Runs() []int {
	out := make([]int, MaxLevels)
	for l := range t.levels {
		out[l] = len(t.levels[l])
	}
	return out
}

// WriteAmplification is run-entries-written per logical write.
func (t *Tree) WriteAmplification() float64 {
	if t.LogicalWrites == 0 {
		return 0
	}
	return float64(t.EntriesWrittenToRuns) / float64(t.LogicalWrites)
}
