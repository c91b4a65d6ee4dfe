package trace

import (
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
		g := NewKVGen(1, 10000, c.mix, 100)
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
	g := NewKVGen(2, 1000, YCSBC, 64)
	counts := map[string]int{}
	for i := 0; i < 50000; i++ {
		counts[string(g.Next().Key)]++
	}
	hot := counts[string(Key(0))]
	if hot < 1000 {
		t.Fatalf("hottest key only %d/50000 accesses; zipf broken", hot)
	}
}

// TestKeyMatchesSprintf pins the hand-filled key to the format it
// replaces, at every digit-count boundary and across the hand-off to
// the Sprintf path at 10^12.
func TestKeyMatchesSprintf(t *testing.T) {
	is := []uint64{0, 1, 7, 1999, 2000, 1e12 - 1, 1e12, 1e12 + 1, 1e13, math.MaxUint64}
	for p := uint64(10); p < 1e12; p *= 10 {
		is = append(is, p-1, p, p+1)
	}
	for _, i := range is {
		if got, want := string(Key(i)), fmt.Sprintf("user%012d", i); got != want {
			t.Errorf("Key(%d) = %q, want %q", i, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { Key(123456) }); n > 1 {
		t.Errorf("Key allocated %v times, want at most 1", n)
	}
}

func TestValueDeterministic(t *testing.T) {
	g := NewKVGen(3, 100, YCSBA, 64)
	a, b := g.Value(7), g.Value(7)
	if string(a) != string(b) || len(a) != 64 {
		t.Fatal("values not deterministic or wrong size")
	}
}

func TestPacketMarshalRoundTrip(t *testing.T) {
	p := Packet{SrcIP: 0x0a010203, DstIP: 0xC0A80001, SrcPort: 3456, DstPort: 22,
		Proto: 6, Flags: 0x12, Bytes: 1000, AuthFail: true}
	q := UnmarshalPacket(p.Marshal())
	if q != p {
		t.Fatalf("roundtrip %+v != %+v", q, p)
	}
}

func TestAttackGenMixesAttackers(t *testing.T) {
	g := NewAttackGen(4, 10)
	attackerSet := map[uint32]bool{}
	for _, a := range g.Attackers() {
		attackerSet[a] = true
	}
	attackPkts, failPkts := 0, 0
	const n = 10000
	for i := 0; i < n; i++ {
		p := g.Next()
		if attackerSet[p.SrcIP] {
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
	if g.Open() != syn-fin {
		t.Fatalf("open = %d, want %d", g.Open(), syn-fin)
	}
}
