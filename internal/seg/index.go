package seg

import "math/bits"

// oidIndex is the segment table: ObjectID → descriptor, an open-addressed
// table with linear probing and backward-shift deletion (no tombstones,
// so probe chains never outlive their keys), a power-of-two capacity
// kept at load ≤ ½, grown lazily from empty. Object ids are
// caller-chosen 128-bit values — kvssd, bptree, lsm, hfs and txn each
// mint (prefix, counter), E6 draws them — so this stays a hash; it is a
// multiply and a shift instead of aeshash and a swiss-map probe. Only
// Checkpoint iterates it, and sorts what it collects.
type oidIndex struct {
	slots []oidSlot // len is 0 or a power of two
	n     int       // occupied slots
	shift uint      // 64 - log2(len(slots)): home keeps the hash's top bits
}

type oidSlot struct {
	key ObjectID
	sg  *Segment // nil marks an empty slot
}

const oidIndexMinSlots = 8

// home is the slot id's probe chain starts at. Hi is mixed in before
// the Fibonacci multiply so a (prefix, counter) family spreads on the
// counter and families with different prefixes land apart.
func (x *oidIndex) home(id ObjectID) int {
	const phi = 0x9e3779b97f4a7c15
	return int(((id.Hi*phi + id.Lo) * phi) >> x.shift)
}

// get returns id's descriptor, or nil when id is not bound.
func (x *oidIndex) get(id ObjectID) *Segment {
	if x.n == 0 {
		return nil
	}
	mask := len(x.slots) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.sg == nil || s.key == id {
			return s.sg
		}
	}
}

// set binds id to sg, replacing any earlier binding.
func (x *oidIndex) set(id ObjectID, sg *Segment) {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	mask := len(x.slots) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.sg == nil {
			*s = oidSlot{key: id, sg: sg}
			x.n++
			return
		}
		if s.key == id {
			s.sg = sg
			return
		}
	}
}

// del unbinds id. The hole is closed by moving up each later entry of
// the run whose home is not past the hole, so every remaining key is
// still reachable from its home without crossing an empty slot.
func (x *oidIndex) del(id ObjectID) {
	if x.n == 0 {
		return
	}
	mask := len(x.slots) - 1
	i := x.home(id)
	for x.slots[i].key != id || x.slots[i].sg == nil {
		if x.slots[i].sg == nil {
			return // end of the run: id is not bound
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.slots[j].sg != nil; j = (j + 1) & mask {
		// Distances are cyclic: slot j's entry may fill the hole at i
		// only if its home is at or before i on the way to j.
		if (j-x.home(x.slots[j].key))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = oidSlot{}
	x.n--
}

func (x *oidIndex) grow() {
	old := x.slots
	size := max(2*len(old), oidIndexMinSlots)
	x.slots = make([]oidSlot, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	x.n = 0
	for _, s := range old {
		if s.sg != nil {
			x.set(s.key, s.sg)
		}
	}
}
