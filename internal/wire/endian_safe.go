//go:build wiresafe

package wire

import "encoding/binary"

// Portable fallback for the fixed-array endian field types: identical
// byte layouts, decoded through encoding/binary instead of unsafe
// reinterpretation. Correct on any host byte order.

// BE32 is a big-endian uint32 field.
type BE32 [4]byte

// Uint32 decodes the field.
func (b BE32) Uint32() uint32 { return binary.BigEndian.Uint32(b[:]) }

// PutBE32 encodes v.
func PutBE32(v uint32) BE32 {
	var b BE32
	binary.BigEndian.PutUint32(b[:], v)
	return b
}

// BE64 is a big-endian uint64 field.
type BE64 [8]byte

// Uint64 decodes the field.
func (b BE64) Uint64() uint64 { return binary.BigEndian.Uint64(b[:]) }

// PutBE64 encodes v.
func PutBE64(v uint64) BE64 {
	var b BE64
	binary.BigEndian.PutUint64(b[:], v)
	return b
}

// LE16 is a little-endian uint16 field.
type LE16 [2]byte

// Uint16 decodes the field.
func (b LE16) Uint16() uint16 { return binary.LittleEndian.Uint16(b[:]) }

// PutLE16 encodes v.
func PutLE16(v uint16) LE16 {
	var b LE16
	binary.LittleEndian.PutUint16(b[:], v)
	return b
}

// LE32 is a little-endian uint32 field.
type LE32 [4]byte

// Uint32 decodes the field.
func (b LE32) Uint32() uint32 { return binary.LittleEndian.Uint32(b[:]) }

// PutLE32 encodes v.
func PutLE32(v uint32) LE32 {
	var b LE32
	binary.LittleEndian.PutUint32(b[:], v)
	return b
}

// LE64 is a little-endian uint64 field.
type LE64 [8]byte

// Uint64 decodes the field.
func (b LE64) Uint64() uint64 { return binary.LittleEndian.Uint64(b[:]) }

// PutLE64 encodes v.
func PutLE64(v uint64) LE64 {
	var b LE64
	binary.LittleEndian.PutUint64(b[:], v)
	return b
}

// mustLittleEndian is the unsafe path's startup guard; the portable
// path works on any byte order, so it never fires here but keeps the
// fail-loudly contract testable under both build tags.
func mustLittleEndian(le bool) {
	_ = le
}
