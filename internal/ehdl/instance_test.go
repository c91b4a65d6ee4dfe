package ehdl_test

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"hyperion/internal/apps/fail2ban"
	"hyperion/internal/ebpf"
	"hyperion/internal/ehdl"
	"hyperion/internal/trace"
)

// f2bImage compiles the fail2ban filter at threshold 1: a source's
// second authentication failure bans it.
func f2bImage(t *testing.T) *ehdl.Image {
	t.Helper()
	img, err := fail2ban.Compile("k", 1)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// verdict runs one packet from src through p.
func verdict(t *testing.T, p *ehdl.Pipeline, src uint32, authFail bool) uint64 {
	t.Helper()
	ctx := make([]byte, trace.PacketBytes)
	trace.Packet{SrcIP: src, DstPort: 22, Proto: 6, AuthFail: authFail}.MarshalTo(ctx)
	ret, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return ret
}

// TestInstancesShareNoBans: a ban written through one instance of an
// image is invisible to another, which passes the banned source and
// holds no entry in either map.
func TestInstancesShareNoBans(t *testing.T) {
	img := f2bImage(t)
	a, b := img.Instance("a"), img.Instance("b")
	const src = 7
	verdict(t, a, src, true)
	if v := verdict(t, a, src, true); v != fail2ban.VerdictBanned {
		t.Fatalf("second failure through a = %d, want VerdictBanned", v)
	}
	if v := verdict(t, a, src, false); v != fail2ban.VerdictDrop {
		t.Fatalf("banned source through a = %d, want VerdictDrop", v)
	}
	if v := verdict(t, b, src, false); v != fail2ban.VerdictPass {
		t.Fatalf("a's banned source through b = %d, want VerdictPass", v)
	}
	for id := 0; id < 2; id++ {
		m, err := b.VM().Maps.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if m.Len() != 0 {
			t.Errorf("b's map %d holds %d entries written through a", id, m.Len())
		}
	}
}

// mapsSource declares two maps of different geometry, small enough to
// fill.
const mapsSource = `package prog

//hyperion:map small id=0 key=4 value=8 entries=2
//hyperion:map wide id=1 key=8 value=16 entries=3

type Ctx struct {
	X uint32
}

func Entry(ctx *Ctx) uint64 {
	return 0
}
`

// TestInstanceMapsMatchDeclarations: an instance's maps are the
// image's //hyperion:map declarations, ids in order, each empty and of
// the declared key size, value size and capacity.
func TestInstanceMapsMatchDeclarations(t *testing.T) {
	prog, img, err := ehdl.CompileSource("maps.go", []byte(mapsSource), nil, "k")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ { // a second instance starts as empty as the first
		maps := img.Instance("m").VM().Maps
		if maps.Len() != len(prog.Maps) {
			t.Fatalf("instance has %d maps, source declares %d", maps.Len(), len(prog.Maps))
		}
		for _, d := range prog.Maps {
			m, err := maps.Get(d.ID)
			if err != nil {
				t.Fatal(err)
			}
			if m.KeySize() != d.KeySize || m.ValueSize() != d.ValueSize || m.Len() != 0 {
				t.Fatalf("map %s: key %d value %d len %d, declared key %d value %d",
					d.Name, m.KeySize(), m.ValueSize(), m.Len(), d.KeySize, d.ValueSize)
			}
			key, val := make([]byte, d.KeySize), make([]byte, d.ValueSize)
			for i := 0; i < d.Entries; i++ {
				binary.LittleEndian.PutUint32(key, uint32(i))
				if err := m.Update(key, val); err != nil {
					t.Fatalf("map %s: entry %d of %d: %v", d.Name, i+1, d.Entries, err)
				}
			}
			binary.LittleEndian.PutUint32(key, uint32(d.Entries))
			if err := m.Update(key, val); !errors.Is(err, ebpf.ErrMapFull) {
				t.Fatalf("map %s: entry past the declared %d: err = %v, want ErrMapFull", d.Name, d.Entries, err)
			}
		}
	}
}

// TestInstancesRunConcurrently: two instances of one image run on two
// goroutines at once. They share the image's instruction slice and
// nothing they write, so the race detector stays quiet and each bans
// exactly the sources it saw fail.
func TestInstancesRunConcurrently(t *testing.T) {
	img := f2bImage(t)
	var wg sync.WaitGroup
	bans := make([]int, 2)
	for g := range bans {
		p := img.Instance("g")
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := make([]byte, trace.PacketBytes)
			for i := 0; i < 2000; i++ {
				// Goroutine g fails sources ≡ g mod 2 and sends the
				// other half clean.
				src := uint32(i % 64)
				trace.Packet{SrcIP: src, AuthFail: int(src)%2 == g}.MarshalTo(ctx)
				ret, err := p.Run(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if ret == fail2ban.VerdictBanned {
					bans[g]++
				}
			}
		}()
	}
	wg.Wait()
	if bans[0] != 32 || bans[1] != 32 {
		t.Fatalf("bans per instance = %v, want 32 each", bans)
	}
}
