package wire

// Offset accessors: read or write a fixed-endian field at a byte
// offset in a buffer. These compile to the same code under both the
// unsafe and wiresafe builds — only the field types' method bodies
// differ — and panic if fewer than the field's bytes remain, exactly
// like an out-of-range slice index.

// BE32At decodes a big-endian uint32 at b[off:].
func BE32At(b []byte, off int) uint32 { return (*BE32)(b[off:]).Uint32() }

// PutBE32At encodes v at b[off:].
func PutBE32At(b []byte, off int, v uint32) { *(*BE32)(b[off:]) = PutBE32(v) }

// BE64At decodes a big-endian uint64 at b[off:].
func BE64At(b []byte, off int) uint64 { return (*BE64)(b[off:]).Uint64() }

// PutBE64At encodes v at b[off:].
func PutBE64At(b []byte, off int, v uint64) { *(*BE64)(b[off:]) = PutBE64(v) }

// LE16At decodes a little-endian uint16 at b[off:].
func LE16At(b []byte, off int) uint16 { return (*LE16)(b[off:]).Uint16() }

// PutLE16At encodes v at b[off:].
func PutLE16At(b []byte, off int, v uint16) { *(*LE16)(b[off:]) = PutLE16(v) }

// LE32At decodes a little-endian uint32 at b[off:].
func LE32At(b []byte, off int) uint32 { return (*LE32)(b[off:]).Uint32() }

// PutLE32At encodes v at b[off:].
func PutLE32At(b []byte, off int, v uint32) { *(*LE32)(b[off:]) = PutLE32(v) }

// LE64At decodes a little-endian uint64 at b[off:].
func LE64At(b []byte, off int) uint64 { return (*LE64)(b[off:]).Uint64() }

// PutLE64At encodes v at b[off:].
func PutLE64At(b []byte, off int, v uint64) { *(*LE64)(b[off:]) = PutLE64(v) }
