package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"hyperion/internal/rpc"
	"hyperion/internal/wire"
)

// TestPutCapsuleKeyPastEnd: a put capsule whose key length runs past
// its end is answered with errBadPut; the serving DPU stores nothing
// and keeps serving.
func TestPutCapsuleKeyPastEnd(t *testing.T) {
	eng, c, r := rig(t, 3, 1)
	pool := wire.NewPool(64)
	for _, raw := range [][]byte{
		{0, 0},                      // shorter than the length field
		{0, 0, 0, 9, 'k', 'e', 'y'}, // a 9-byte key in 3 bytes
		{0xff, 0xff, 0xff, 0xff},    // a 4 GiB key in none
	} {
		capsule := pool.Get(len(raw))
		copy(capsule.Bytes(), raw)
		var got error
		r.cli.Call(c.Nodes[0].DPU.ControlAddr(), MethodPut, capsule, 64, func(_ any, err error) { got = err })
		eng.Run()
		capsule.Release()
		if !errors.Is(got, rpc.ErrRemote) || !strings.Contains(got.Error(), errBadPut.Error()) {
			t.Errorf("put capsule % x: err = %v, want remote %v", raw, got, errBadPut)
		}
	}
	if c.Nodes[0].Puts != 0 {
		t.Fatalf("node 0 stored %d refused puts", c.Nodes[0].Puts)
	}
	var perr error
	r.Put([]byte("k"), []byte("v"), func(err error) { perr = err })
	eng.Run()
	if perr != nil {
		t.Fatalf("put after refused capsules: %v", perr)
	}
}

// FuzzDecodePut: decodePut faces whatever bytes a request carries. It
// never panics, refuses anything shorter than its key length field,
// never returns views past the capsule, and decodes every encodePut
// output back to its key and value.
func FuzzDecodePut(f *testing.F) {
	f.Add([]byte{}, []byte("key"), []byte("value"))
	f.Add([]byte{0, 0, 0, 9, 'k', 'e', 'y'}, []byte{}, []byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte("k"), bytes.Repeat([]byte{0xCD}, 64))
	pool := wire.NewPool(64)
	f.Fuzz(func(t *testing.T, raw, key, value []byte) {
		k, v, err := decodePut(raw)
		switch {
		case len(raw) < putKeyOff:
			if !errors.Is(err, errBadPut) {
				t.Fatalf("%d-byte capsule: err = %v, want %v", len(raw), err, errBadPut)
			}
		case err == nil:
			klen := int(binary.BigEndian.Uint32(raw))
			if !bytes.Equal(k, raw[putKeyOff:putKeyOff+klen]) || !bytes.Equal(v, raw[putKeyOff+klen:]) {
				t.Fatalf("capsule % x decoded to key % x, value % x", raw, k, v)
			}
		case !errors.Is(err, errBadPut):
			t.Fatalf("capsule % x: err = %v", raw, err)
		}

		b := encodePut(pool, key, value)
		k, v, err = decodePut(b.Bytes())
		if err != nil || !bytes.Equal(k, key) || !bytes.Equal(v, value) {
			t.Fatalf("round trip: key % x, value % x, %v; want % x, % x", k, v, err, key, value)
		}
		b.Release()
	})
}
