package ebpf

import (
	"errors"
	"fmt"
	"sort"
)

// Map is the eBPF map interface: fixed-size keys and values, byte-slice
// semantics like the kernel's.
type Map interface {
	KeySize() int
	ValueSize() int
	Lookup(key []byte) ([]byte, bool)
	Update(key, value []byte) error
	Delete(key []byte) bool
	Len() int
}

// Map errors.
var (
	ErrKeySize   = errors.New("ebpf: wrong key size")
	ErrValueSize = errors.New("ebpf: wrong value size")
	ErrMapFull   = errors.New("ebpf: map full")
)

// HashMap is a bounded hash map.
type HashMap struct {
	keySize, valueSize, maxEntries int
	m                              map[string][]byte
}

// NewHashMap creates a hash map.
func NewHashMap(keySize, valueSize, maxEntries int) *HashMap {
	if keySize <= 0 || valueSize <= 0 || maxEntries <= 0 {
		panic("ebpf: invalid hash map geometry")
	}
	return &HashMap{keySize: keySize, valueSize: valueSize, maxEntries: maxEntries, m: make(map[string][]byte)}
}

// KeySize returns the key size in bytes.
func (h *HashMap) KeySize() int { return h.keySize }

// ValueSize returns the value size in bytes.
func (h *HashMap) ValueSize() int { return h.valueSize }

// Len returns the number of entries.
func (h *HashMap) Len() int { return len(h.m) }

// Lookup returns a copy-free reference to the stored value.
func (h *HashMap) Lookup(key []byte) ([]byte, bool) {
	if len(key) != h.keySize {
		return nil, false
	}
	v, ok := h.m[string(key)]
	return v, ok
}

// Update inserts or replaces an entry.
func (h *HashMap) Update(key, value []byte) error {
	if len(key) != h.keySize {
		return ErrKeySize
	}
	if len(value) != h.valueSize {
		return ErrValueSize
	}
	k := string(key)
	if _, exists := h.m[k]; !exists && len(h.m) >= h.maxEntries {
		return ErrMapFull
	}
	h.m[k] = append([]byte(nil), value...)
	return nil
}

// Delete removes an entry, reporting whether it existed.
func (h *HashMap) Delete(key []byte) bool {
	if len(key) != h.keySize {
		return false
	}
	k := string(key)
	_, ok := h.m[k]
	delete(h.m, k)
	return ok
}

// Iterate visits all entries in ascending key order. Used by
// control-plane code, not by programs; the sort keeps dumps and any
// state derived from them replay-deterministic.
func (h *HashMap) Iterate(fn func(key, value []byte) bool) {
	keys := make([]string, 0, len(h.m))
	for k := range h.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !fn([]byte(k), h.m[k]) {
			return
		}
	}
}

// MapSet names the maps available to a program; map file descriptors in
// real eBPF become small integer ids here, referenced by LoadImm64 of the
// id into a register before a helper call.
type MapSet struct {
	maps []Map
}

// Add registers a map and returns its id.
func (s *MapSet) Add(m Map) int {
	s.maps = append(s.maps, m)
	return len(s.maps) - 1
}

// Get returns the map with id i.
func (s *MapSet) Get(i int) (Map, error) {
	if i < 0 || i >= len(s.maps) {
		return nil, fmt.Errorf("ebpf: no map with id %d", i)
	}
	return s.maps[i], nil
}

// Len returns the number of registered maps.
func (s *MapSet) Len() int { return len(s.maps) }
