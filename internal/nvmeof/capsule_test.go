package nvmeof

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"hyperion/internal/rpc"
	"hyperion/internal/transport"
	"hyperion/internal/wire"
)

// FuzzDecodeCapsules: the capsule decoders face whatever bytes a
// request carries. They never panic, refuse anything shorter than
// their header with errBadCapsule, and decode every encoder output back
// to the encoder's inputs.
func FuzzDecodeCapsules(f *testing.F) {
	f.Add([]byte{}, int64(0), uint32(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0}, int64(-1), uint32(1))
	f.Add(bytes.Repeat([]byte{0xCD}, 4096), int64(8), uint32(16))
	pool := wire.NewPool(readCapLen)
	f.Fuzz(func(t *testing.T, raw []byte, lba int64, blocks uint32) {
		if _, _, err := decodeReadArgs(raw); (err != nil) != (len(raw) < readCapLen) || (err != nil && !errors.Is(err, errBadCapsule)) {
			t.Fatalf("read capsule of %d bytes: err = %v", len(raw), err)
		}
		if _, _, err := decodeWriteArgs(raw); (err != nil) != (len(raw) < writeHdrLen) || (err != nil && !errors.Is(err, errBadCapsule)) {
			t.Fatalf("write capsule of %d bytes: err = %v", len(raw), err)
		}

		b := encodeReadArgs(pool, lba, int(blocks))
		gl, gb, err := decodeReadArgs(b.Bytes())
		if err != nil || gl != lba || gb != int(blocks) {
			t.Fatalf("read round trip: %d, %d, %v; want %d, %d", gl, gb, err, lba, blocks)
		}
		b.Release()
		b = encodeWriteArgs(pool, lba, raw)
		gl, data, err := decodeWriteArgs(b.Bytes())
		if err != nil || gl != lba || !bytes.Equal(data, raw) {
			t.Fatalf("write round trip: %d, %d bytes, %v; want %d, %d bytes", gl, len(data), err, lba, len(raw))
		}
		b.Release()
	})
}

// TestShortCapsuleAnsweredBadCapsule: a request whose capsule is short,
// or missing, is answered with errBadCapsule and reaches no device.
func TestShortCapsuleAnsweredBadCapsule(t *testing.T) {
	eng, tgt, ini := rig(t, transport.RDMA)
	pool := wire.NewPool(readCapLen)
	for _, tc := range []struct {
		method string
		arg    any
	}{
		{methodRead, pool.Get(readCapLen - 1)},
		{methodRead, nil},
		{methodWrite, pool.Get(writeHdrLen - 1)},
		{methodWrite, "not a capsule"},
	} {
		var got error
		ini.c.Call("target", tc.method, tc.arg, 64, func(_ any, err error) { got = err })
		eng.Run()
		if !errors.Is(got, rpc.ErrRemote) || !strings.Contains(got.Error(), errBadCapsule.Error()) {
			t.Errorf("%s with %T: err = %v, want remote %v", tc.method, tc.arg, got, errBadCapsule)
		}
	}
	if tgt.Reads != 0 || tgt.Writes != 0 {
		t.Fatalf("target counted r=%d w=%d for refused capsules", tgt.Reads, tgt.Writes)
	}
}
