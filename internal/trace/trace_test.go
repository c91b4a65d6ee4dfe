package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

func TestYCSBMixRatios(t *testing.T) {
	cases := []struct {
		mix            YCSBMix
		readLo, readHi int
	}{
		{YCSBA, 45, 55},
		{YCSBB, 92, 98},
		{YCSBC, 100, 100},
	}
	for _, c := range cases {
		g := NewKVGen(1, 10000, c.mix)
		reads := 0
		const n = 20000
		for i := 0; i < n; i++ {
			if g.Next().Kind == 'r' {
				reads++
			}
		}
		pct := reads * 100 / n
		if pct < c.readLo || pct > c.readHi {
			t.Errorf("%v: read pct = %d, want [%d,%d]", c.mix, pct, c.readLo, c.readHi)
		}
	}
}

func TestKVGenSkew(t *testing.T) {
	g := NewKVGen(2, 1000, YCSBC)
	counts := map[string]int{}
	for i := 0; i < 50000; i++ {
		counts[string(g.Next().Key)]++
	}
	hot := counts[string(AppendKey(nil, 0))]
	if hot < 1000 {
		t.Fatalf("hottest key only %d/50000 accesses; zipf broken", hot)
	}
}

// TestKeyMatchesSprintf pins the hand-filled key to its format at every
// digit-count boundary and past twelve digits.
func TestKeyMatchesSprintf(t *testing.T) {
	is := []uint64{0, 1, 7, 1999, 2000, 1e12 - 1, 1e12, 1e12 + 1, 1e13, math.MaxUint64}
	for p := uint64(10); p < 1e12; p *= 10 {
		is = append(is, p-1, p, p+1)
	}
	buf := []byte("stale")
	for _, i := range is {
		buf = AppendKey(buf[:0], i)
		if got, want := string(buf), fmt.Sprintf("user%012d", i); got != want {
			t.Errorf("AppendKey(%d) = %q, want %q", i, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { buf = AppendKey(buf[:0], math.MaxUint64) }); n != 0 {
		t.Errorf("AppendKey into a warm buffer allocated %v times, want 0", n)
	}
}

func TestValueDeterministic(t *testing.T) {
	g := NewKVGen(3, 100, YCSBA)
	a := g.AppendValue(nil, 7)
	b := g.AppendValue([]byte("prefix"), 7)
	if string(a) != string(b[len("prefix"):]) || len(a) != valueBytes {
		t.Fatal("values not deterministic or wrong size")
	}
}

// tapeKey and tapeValue are the key and value the generator made when
// every op allocated its own; the tape test pins Next to them.
func tapeKey(i uint64) []byte { return []byte(fmt.Sprintf("user%012d", i)) }

func tapeValue(key uint64) []byte {
	v := make([]byte, valueBytes)
	binary.LittleEndian.PutUint64(v, key)
	for i := 8; i < len(v); i++ {
		v[i] = byte(key + uint64(i))
	}
	return v
}

// TestKVGenTapeMatchesFreshBuffers replays 10 000 ops of each mix and
// requires every lent key and value to equal the freshly made bytes of
// the same draw, and AppendValue to agree with it in the load phase.
func TestKVGenTapeMatchesFreshBuffers(t *testing.T) {
	for _, mix := range []YCSBMix{YCSBA, YCSBB, YCSBC} {
		g, ref := NewKVGen(9, 2000, mix), NewKVGen(9, 2000, mix)
		for i := 0; i < 10000; i++ {
			op := g.Next()
			k := ref.zipf.Next()
			read := ref.r.Intn(100) < map[YCSBMix]int{YCSBA: 50, YCSBB: 95, YCSBC: 100}[mix]
			if want := tapeKey(k); string(op.Key) != string(want) {
				t.Fatalf("%v op %d: key %q, want %q", mix, i, op.Key, want)
			}
			switch {
			case read && (op.Kind != 'r' || op.Value != nil):
				t.Fatalf("%v op %d: kind %c with %d value bytes, want a read", mix, i, op.Kind, len(op.Value))
			case !read && (op.Kind != 'u' || string(op.Value) != string(tapeValue(k))):
				t.Fatalf("%v op %d: kind %c, value differs from the update's", mix, i, op.Kind)
			}
		}
	}
	g := NewKVGen(3, 100, YCSBA)
	var buf []byte
	for _, k := range g.LoadKeys() {
		if buf = g.AppendValue(buf[:0], k); string(buf) != string(tapeValue(k)) {
			t.Fatalf("AppendValue(%d) differs", k)
		}
	}
}

// BenchmarkKVGenNext draws YCSB-A ops: half carry a value, and every key
// and value lands in the generator's own buffers, so a warm generator
// allocates nothing per op and the benchmark fails otherwise.
func BenchmarkKVGenNext(b *testing.B) {
	g := NewKVGen(1, 2000, YCSBA)
	if n := testing.AllocsPerRun(1000, func() { g.Next() }); n != 0 {
		b.Fatalf("Next allocated %v times per op, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func TestPacketMarshalRoundTrip(t *testing.T) {
	p := Packet{SrcIP: 0x0a010203, DstIP: 0xC0A80001, SrcPort: 3456, DstPort: 22,
		Proto: 6, Flags: 0x12, Bytes: 1000, AuthFail: true}
	b := make([]byte, PacketBytes)
	for i := range b {
		b[i] = 0xAA // a reused buffer: MarshalTo must overwrite every byte
	}
	p.MarshalTo(b)
	if b[19] != 0 {
		t.Fatalf("pad byte = %#x, want 0", b[19])
	}
	q := Packet{
		SrcIP: binary.LittleEndian.Uint32(b[0:]), DstIP: binary.LittleEndian.Uint32(b[4:]),
		SrcPort: binary.LittleEndian.Uint16(b[8:]), DstPort: binary.LittleEndian.Uint16(b[10:]),
		Proto: b[12], Flags: b[13], Bytes: int(binary.LittleEndian.Uint32(b[14:])), AuthFail: b[18] == 1,
	}
	if q != p {
		t.Fatalf("roundtrip %+v != %+v", q, p)
	}
}

func TestAttackGenMixesAttackers(t *testing.T) {
	g := NewAttackGen(4, 10)
	attackPkts, failPkts := 0, 0
	const n = 10000
	for i := 0; i < n; i++ {
		p := g.Next()
		if p.SrcIP>>16 == 0x0a00 { // attackers live in 10.0.0.0/16
			attackPkts++
			if p.AuthFail {
				failPkts++
			}
		}
	}
	if attackPkts < n/5 || attackPkts > n/2 {
		t.Fatalf("attack packets = %d/%d", attackPkts, n)
	}
	if failPkts*10 < attackPkts*8 {
		t.Fatalf("attacker auth failures = %d of %d", failPkts, attackPkts)
	}
}

func TestConnGenLifecycle(t *testing.T) {
	g := NewConnGen(5)
	syn, fin, data := 0, 0, 0
	for i := 0; i < 10000; i++ {
		p := g.Next()
		switch p.Flags {
		case 0x02:
			syn++
		case 0x01:
			fin++
		default:
			data++
		}
	}
	if syn == 0 || fin == 0 || data == 0 {
		t.Fatalf("mix syn=%d fin=%d data=%d", syn, fin, data)
	}
	if fin > syn {
		t.Fatal("closed more connections than opened")
	}
	if len(g.open) != syn-fin {
		t.Fatalf("open = %d, want %d", len(g.open), syn-fin)
	}
}
