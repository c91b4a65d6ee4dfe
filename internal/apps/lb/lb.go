// Package lb is the Tiara-style stateful layer-4 load balancer of §2.4:
// per-connection state lives in on-card DRAM while hot, and spills to
// the attached NVMe SSDs when the table outgrows memory — where Tiara
// had to punt overflow state to x86 servers, Hyperion keeps it local on
// flash. Lookup cost is charged through the segment store's cost model.
package lb

import (
	"encoding/binary"
	"fmt"

	"hyperion/internal/seg"
	"hyperion/internal/sim"
	"hyperion/internal/storage/kvssd"
	"hyperion/internal/trace"
)

// Backend identifies one real server behind the VIP.
type Backend struct {
	Addr   uint32
	Weight int
}

// Balancer is one deployed L4 load balancer.
type Balancer struct {
	v        *seg.SyncView
	backends []Backend
	// Hot connection table: DRAM-resident, bounded (models on-card
	// SRAM/DRAM capacity in connection entries).
	hot     flowTable
	hotCap  int
	hotCost sim.Duration // per hot-table access
	// victims orders candidate evictions by key so a full hot table
	// yields its smallest resident key in O(log n) instead of a full
	// map scan per insert. Entries go stale when flows close or spill;
	// insert discards those lazily.
	victims keyHeap
	// Spill store on NVMe.
	spill *kvssd.KV
	// Encode scratch for spill keys/values; the store copies on Put and
	// the balancer is single-threaded, so one buffer per balancer
	// suffices.
	kbuf [8]byte
	vbuf [4]byte

	Hits, SpillHits, Misses, Spills, NewConns, Closed int64
}

// New creates a balancer with the given hot-table capacity (entries).
func New(v *seg.SyncView, metaID seg.ObjectID, backends []Backend, hotCap int) (*Balancer, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("lb: need at least one backend")
	}
	spill, err := kvssd.Create(v, metaID, kvssd.BackendBTree, true)
	if err != nil {
		return nil, err
	}
	b := &Balancer{
		v:        v,
		backends: backends,
		hotCap:   hotCap,
		hotCost:  200 * sim.Nanosecond,
		spill:    spill,
	}
	b.hot.init(hotCap)
	return b, nil
}

// flowTable is the hot connection table as a struct-of-arrays
// open-addressing hash (keys, values, and slot states in parallel
// arrays with linear probing) — the layout an on-card CAM/SRAM lookup
// pipeline uses, and measurably cheaper per access than a boxed map
// for this fixed-shape u64→u32 workload. A delete shifts the rest of
// its probe run back instead of leaving a tombstone, so the table only
// grows when its live entries pass half its slots.
type flowTable struct {
	keys []uint64
	vals []uint32
	full []bool
	n    int // live entries
	mask uint64
}

func (t *flowTable) init(hint int) {
	size := 16
	for size < hint*2 {
		size <<= 1
	}
	t.keys = make([]uint64, size)
	t.vals = make([]uint32, size)
	t.full = make([]bool, size)
	t.mask = uint64(size - 1)
	t.n = 0
}

// slot mixes the (already FNV-hashed) flow key into a probe start.
func (t *flowTable) slot(k uint64) uint64 { return (k ^ k>>33) & t.mask }

// find returns k's slot, or the empty slot that ends its probe run.
func (t *flowTable) find(k uint64) uint64 {
	i := t.slot(k)
	for t.full[i] && t.keys[i] != k {
		i = (i + 1) & t.mask
	}
	return i
}

func (t *flowTable) get(k uint64) (uint32, bool) {
	i := t.find(k)
	if !t.full[i] {
		return 0, false
	}
	return t.vals[i], true
}

func (t *flowTable) put(k uint64, v uint32) {
	if 2*(t.n+1) > len(t.keys) {
		t.grow()
	}
	i := t.find(k)
	if !t.full[i] {
		t.keys[i], t.full[i] = k, true
		t.n++
	}
	t.vals[i] = v
}

// del removes k. The hole is closed by moving up each later entry of
// the run whose home is not past the hole, so every remaining key is
// still reachable from its home without crossing an empty slot.
func (t *flowTable) del(k uint64) {
	i := t.find(k)
	if !t.full[i] {
		return
	}
	for j := (i + 1) & t.mask; t.full[j]; j = (j + 1) & t.mask {
		if (j-t.slot(t.keys[j]))&t.mask >= (j-i)&t.mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.full[i] = false
	t.n--
}

func (t *flowTable) grow() {
	ok, ov, of := t.keys, t.vals, t.full
	t.init(len(ok))
	for i, f := range of {
		if f {
			t.put(ok[i], ov[i])
		}
	}
}

// flowKey hashes the 5-tuple.
func flowKey(p trace.Packet) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(p.SrcIP))
	mix(uint64(p.DstIP))
	mix(uint64(p.SrcPort))
	mix(uint64(p.DstPort))
	mix(uint64(p.Proto))
	return h
}

// keyBytes encodes a flow key into the balancer's scratch buffer; the
// result is valid until the next call.
func (b *Balancer) keyBytes(k uint64) []byte {
	binary.LittleEndian.PutUint64(b.kbuf[:], k)
	return b.kbuf[:]
}

// pickBackend selects a backend for a new flow (weighted by position;
// flow-hash affinity keeps selection deterministic).
func (b *Balancer) pickBackend(k uint64) uint32 {
	return b.backends[k%uint64(len(b.backends))].Addr
}

// Steer processes one packet and returns the backend address it should
// go to (0 for packets on unknown flows that are not SYNs). The modeled
// cost of the decision accrues on the balancer's SyncView.
func (b *Balancer) Steer(p trace.Packet) (uint32, error) {
	k := flowKey(p)
	b.v.Charge(b.hotCost)
	if p.Flags == 0x02 { // SYN: new connection
		b.NewConns++
		dst := b.pickBackend(k)
		b.insert(k, dst)
		return dst, nil
	}
	if dst, ok := b.hot.get(k); ok {
		b.Hits++
		if p.Flags == 0x01 { // FIN
			b.hot.del(k)
			b.Closed++
			return dst, nil
		}
		return dst, nil
	}
	// Cold path: consult the spill store on NVMe.
	var vb [4]byte
	val, ok, err := b.spill.GetAppend(vb[:0], b.keyBytes(k))
	if err != nil {
		return 0, err
	}
	if !ok {
		b.Misses++
		return 0, nil
	}
	b.SpillHits++
	dst := binary.LittleEndian.Uint32(val)
	if p.Flags == 0x01 { // FIN
		if _, err := b.spill.Delete(b.keyBytes(k)); err != nil {
			return 0, err
		}
		b.Closed++
		return dst, nil
	}
	// Promote the reactivated flow back into DRAM.
	b.insert(k, dst)
	if _, err := b.spill.Delete(b.keyBytes(k)); err != nil {
		return 0, err
	}
	return dst, nil
}

// insert places a flow in the hot table, spilling a victim to NVMe when
// at capacity.
func (b *Balancer) insert(k uint64, dst uint32) {
	if b.hot.n >= b.hotCap {
		// Evict the smallest resident key (hardware would use CLOCK;
		// smallest-key keeps the choice fully reproducible). The victim
		// heap holds every key ever inserted, so its minimum resident
		// entry is exactly min(hot): pop and discard stale entries for
		// keys that were closed or already evicted.
		var victim uint64
		var vdst uint32
		for {
			victim = b.victims.pop()
			if v, ok := b.hot.get(victim); ok {
				vdst = v
				break
			}
		}
		binary.LittleEndian.PutUint32(b.vbuf[:], vdst)
		if err := b.spill.Put(b.keyBytes(victim), b.vbuf[:]); err == nil {
			b.Spills++
			b.hot.del(victim)
		} else {
			b.victims.push(victim) // still resident; keep it evictable
		}
	}
	b.hot.put(k, dst)
	b.victims.push(k)
}

// keyHeap is a binary min-heap of flow keys. It may hold stale entries
// (closed or already-evicted flows); because every hot key has at least
// one entry, the smallest entry that is still resident equals the
// smallest key in the hot table.
type keyHeap []uint64

func (h *keyHeap) push(k uint64) {
	s := append(*h, k)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

func (h *keyHeap) pop() uint64 {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1] < s[c] {
			c++
		}
		if s[i] <= s[c] {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// HotLen returns the hot-table occupancy.
func (b *Balancer) HotLen() int { return b.hot.n }
