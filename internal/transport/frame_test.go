package transport

import (
	"encoding/binary"
	"encoding/hex"
	"slices"
	"strings"
	"testing"

	"hyperion/internal/netsim"
	"hyperion/internal/telemetry"
	"hyperion/internal/wire"
)

// TestFrameHeaderBytes pins every byte of one data and one ctrl header,
// the ctrl frame's missing list included: a byte-order or offset slip
// in the encoders changes the wire and fails here.
func TestFrameHeaderBytes(t *testing.T) {
	pool := wire.NewPool(64)
	for _, tc := range []struct {
		name string
		buf  *wire.Buf
		want string
	}{
		{"data", encodeData(pool, dataFrag{
			MsgID: 0x0102030405060708, Seq: 0x1112131415161718,
			Bytes: 0x21222324, Index: 0x31323334, Total: 0x41424344,
		}), "01 00000000000000 0102030405060708 1112131415161718 21222324 31323334 41424344"},
		{"ctrl", encodeCtrl(pool, ctrlMsg{
			Op: resendOp, MsgID: 0x0102030405060708, Seq: 0x1112131415161718,
			Missing: []int{0x0a0b0c0d, 7},
		}), "02 04 000000000000 0102030405060708 1112131415161718 00000002 0a0b0c0d 00000007"},
	} {
		want, err := hex.DecodeString(strings.ReplaceAll(tc.want, " ", ""))
		if err != nil {
			t.Fatal(err)
		}
		if got := tc.buf.Bytes(); !slices.Equal(got, want) {
			t.Errorf("%s header:\n got %x\nwant %x", tc.name, got, want)
		}
		tc.buf.Release()
	}
}

// FuzzFrameHeaders round-trips data and ctrl headers through their
// encoders and decoders. The decoders only ever see bytes an encoder of
// the same process wrote, so the round trip is their whole contract.
func FuzzFrameHeaders(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint32(0), uint32(0), uint32(0), byte(0), []byte{})
	f.Add(uint64(0x0102030405060708), uint64(0x1112131415161718), uint32(0x21222324),
		uint32(0x31323334), uint32(0x41424344), resendOp, []byte{0x0a, 0x0b, 0x0c, 0x0d, 0, 0, 0, 7})
	f.Add(^uint64(0), ^uint64(0), ^uint32(0), ^uint32(0), ^uint32(0), byte(0xff), []byte{0xff, 0xff, 0xff, 0xff, 1})
	pool := wire.NewPool(64)
	f.Fuzz(func(t *testing.T, msgID, seq uint64, bytes, index, total uint32, op byte, raw []byte) {
		frag := dataFrag{
			MsgID: msgID, Seq: seq, Bytes: int(bytes), Index: int(index), Total: int(total),
			Payload: "payload", Span: telemetry.RequestID(msgID ^ seq),
		}
		buf := encodeData(pool, frag)
		fr := netsim.Frame{Buf: buf, Payload: frag.Payload, Span: frag.Span}
		if k := frameKind(fr); k != frameData {
			t.Fatalf("data frame kind %d", k)
		}
		if got := decodeData(fr); got != frag {
			t.Fatalf("data round trip: got %+v, want %+v", got, frag)
		}
		buf.Release()

		var missing []int
		for i := 0; i+4 <= len(raw); i += 4 {
			missing = append(missing, int(binary.BigEndian.Uint32(raw[i:])))
		}
		m := ctrlMsg{Op: op, MsgID: msgID, Seq: seq, Missing: missing}
		buf = encodeCtrl(pool, m)
		if k := frameKind(netsim.Frame{Buf: buf}); k != frameCtrl {
			t.Fatalf("ctrl frame kind %d", k)
		}
		got := decodeCtrl(buf.Bytes(), []int{-1, -1, -1})
		if got.Op != m.Op || got.MsgID != m.MsgID || got.Seq != m.Seq || !slices.Equal(got.Missing, m.Missing) {
			t.Fatalf("ctrl round trip: got %+v, want %+v", got, m)
		}
		buf.Release()
	})
}
