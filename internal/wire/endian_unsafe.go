//go:build !wiresafe

package wire

import "unsafe"

// Fixed-array endian field types, after the m-lab/etl bigendian idiom:
// decode is a single aligned-enough load plus (for BE) a register byte
// swap, with no bounds checks beyond the array conversion at the call
// site. The unsafe reinterpretation is only correct on little-endian
// hosts; init below makes a big-endian host fail loudly at startup
// instead of silently decoding swapped values. Build with
// -tags wiresafe for the portable path.

// BE32 is a big-endian uint32 field.
type BE32 [4]byte

// Uint32 decodes the field.
func (b BE32) Uint32() uint32 {
	swap := [4]byte{b[3], b[2], b[1], b[0]}
	return *(*uint32)(unsafe.Pointer(&swap))
}

// PutBE32 encodes v.
func PutBE32(v uint32) BE32 {
	b := *(*[4]byte)(unsafe.Pointer(&v))
	return BE32{b[3], b[2], b[1], b[0]}
}

// BE64 is a big-endian uint64 field.
type BE64 [8]byte

// Uint64 decodes the field.
func (b BE64) Uint64() uint64 {
	swap := [8]byte{b[7], b[6], b[5], b[4], b[3], b[2], b[1], b[0]}
	return *(*uint64)(unsafe.Pointer(&swap))
}

// PutBE64 encodes v.
func PutBE64(v uint64) BE64 {
	b := *(*[8]byte)(unsafe.Pointer(&v))
	return BE64{b[7], b[6], b[5], b[4], b[3], b[2], b[1], b[0]}
}

// LE16 is a little-endian uint16 field.
type LE16 [2]byte

// Uint16 decodes the field.
func (b LE16) Uint16() uint16 { return *(*uint16)(unsafe.Pointer(&b)) }

// PutLE16 encodes v.
func PutLE16(v uint16) LE16 { return *(*LE16)(unsafe.Pointer(&v)) }

// LE32 is a little-endian uint32 field.
type LE32 [4]byte

// Uint32 decodes the field.
func (b LE32) Uint32() uint32 { return *(*uint32)(unsafe.Pointer(&b)) }

// PutLE32 encodes v.
func PutLE32(v uint32) LE32 { return *(*LE32)(unsafe.Pointer(&v)) }

// LE64 is a little-endian uint64 field.
type LE64 [8]byte

// Uint64 decodes the field.
func (b LE64) Uint64() uint64 { return *(*uint64)(unsafe.Pointer(&b)) }

// PutLE64 encodes v.
func PutLE64(v uint64) LE64 { return *(*LE64)(unsafe.Pointer(&v)) }

// hostLittleEndian reports the byte order of the running host.
func hostLittleEndian() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}

// mustLittleEndian panics unless le: the unsafe decode path above
// reinterprets memory assuming a little-endian host, and running it
// anywhere else must fail at startup, not corrupt wire decodes.
func mustLittleEndian(le bool) {
	if !le {
		panic("wire: big-endian host detected; rebuild with -tags wiresafe for the portable encoding/binary path")
	}
}

func init() { mustLittleEndian(hostLittleEndian()) }
