package seg

import "math/bits"

// oidIndex maps ObjectIDs to lruCache node indexes: an open-addressed
// table with linear probing and backward-shift deletion (no tombstones,
// so probe chains never outlive their keys), a power-of-two capacity
// kept at load ≤ ½, grown lazily from empty. Object ids are
// caller-chosen 128-bit values — kvssd, bptree, lsm, hfs and txn each
// mint (prefix, counter), E6 draws them — so this stays a hash; it is a
// multiply and a shift instead of aeshash and a swiss-map probe. Nothing
// iterates it.
type oidIndex struct {
	slots []oidSlot // len is 0 or a power of two
	n     int       // occupied slots
	shift uint      // 64 - log2(len(slots)): home keeps the hash's top bits
}

type oidSlot struct {
	key ObjectID
	ref int32 // node index + 1; 0 marks an empty slot
}

const oidIndexMinSlots = 8

// home is the slot id's probe chain starts at. Hi is mixed in before
// the Fibonacci multiply so a (prefix, counter) family spreads on the
// counter and families with different prefixes land apart.
func (x *oidIndex) home(id ObjectID) int {
	const phi = 0x9e3779b97f4a7c15
	return int(((id.Hi*phi + id.Lo) * phi) >> x.shift)
}

func (x *oidIndex) get(id ObjectID) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	mask := len(x.slots) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.ref == 0 {
			return 0, false
		}
		if s.key == id {
			return s.ref - 1, true
		}
	}
}

// set binds id to node, replacing any earlier binding.
func (x *oidIndex) set(id ObjectID, node int32) {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	mask := len(x.slots) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.ref == 0 {
			*s = oidSlot{key: id, ref: node + 1}
			x.n++
			return
		}
		if s.key == id {
			s.ref = node + 1
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
	for x.slots[i].key != id || x.slots[i].ref == 0 {
		if x.slots[i].ref == 0 {
			return // end of the run: id is not bound
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.slots[j].ref != 0; j = (j + 1) & mask {
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
		if s.ref != 0 {
			x.set(s.key, s.ref-1)
		}
	}
}
