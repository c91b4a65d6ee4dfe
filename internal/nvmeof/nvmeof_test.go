package nvmeof

import (
	"bytes"
	"errors"
	"testing"

	"hyperion/internal/fault"
	"hyperion/internal/netsim"
	"hyperion/internal/nvme"
	"hyperion/internal/rpc"
	"hyperion/internal/sim"
	"hyperion/internal/transport"
)

func rig(t testing.TB, kind transport.Kind) (*sim.Engine, *Target, *Initiator) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := netsim.New(eng, netsim.DefaultConfig())
	tn, err := net.Attach("target")
	if err != nil {
		t.Fatal(err)
	}
	in, err := net.Attach("init")
	if err != nil {
		t.Fatal(err)
	}
	cfg := nvme.DefaultConfig("remote-ssd")
	cfg.Blocks = 1 << 20
	host := nvme.NewHost(nvme.New(eng, cfg), nil)
	srv := rpc.NewServer(eng, transport.New(eng, kind, tn), rpc.RunToCompletion)
	tgt := NewTarget(srv, host, 0)
	cli := rpc.NewClient(eng, transport.New(eng, kind, in))
	return eng, tgt, NewInitiator(cli, "target", cfg.BlockSize)
}

func TestWriteReadAllTransports(t *testing.T) {
	for _, kind := range []transport.Kind{transport.TCP, transport.RDMA, transport.Homa} {
		t.Run(kind.String(), func(t *testing.T) {
			eng, tgt, ini := rig(t, kind)
			payload := bytes.Repeat([]byte{0xCD}, 8192)
			var werr error
			ini.Write(100, payload, func(err error) { werr = err })
			eng.Run()
			if werr != nil {
				t.Fatal(werr)
			}
			var got []byte
			ini.Read(100, 2, func(data []byte, err error) {
				if err != nil {
					t.Error(err)
				}
				got = append(got, data...) // lent only until the callback returns
			})
			eng.Run()
			if !bytes.Equal(got, payload) {
				t.Fatal("remote read mismatch")
			}
			if tgt.Reads != 1 || tgt.Writes != 1 {
				t.Fatalf("target counters r=%d w=%d", tgt.Reads, tgt.Writes)
			}
		})
	}
}

// TestReadLendsPooledPayload: the target copies a read's lent device
// buffer into a pooled wire buffer, and the initiator lends that to the
// callback and releases it when the callback returns. The callback sees
// each block's own bytes, read after read out of recycled buffers, and
// a steady-state read allocates nothing.
func TestReadLendsPooledPayload(t *testing.T) {
	eng, _, ini := rig(t, transport.RDMA)
	var blocks [8][]byte
	for lba := range blocks {
		blocks[lba] = bytes.Repeat([]byte{byte(0x10 + lba)}, 4096)
		ini.Write(int64(lba), blocks[lba], func(err error) {
			if err != nil {
				t.Error(err)
			}
		})
	}
	eng.Run()
	lba := int64(0)
	cb := func(data []byte, err error) {
		if err != nil || !bytes.Equal(data, blocks[lba]) {
			t.Fatalf("read of block %d: %v, or the callback saw other bytes", lba, err)
		}
	}
	read := func() {
		lba = (lba + 3) % 8
		ini.Read(lba, 1, cb)
		eng.Run()
	}
	for i := 0; i < 16; i++ {
		read()
	}
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Fatalf("a steady-state Initiator.Read allocates %v objects/op, want 0", n)
	}
}

func TestFlush(t *testing.T) {
	eng, tgt, ini := rig(t, transport.RDMA)
	var ferr error
	done := false
	ini.Write(0, make([]byte, 4096), func(error) {
		ini.Flush(func(err error) { ferr = err; done = true })
	})
	eng.Run()
	if !done || ferr != nil {
		t.Fatalf("flush done=%v err=%v", done, ferr)
	}
	if tgt.Flushes != 1 {
		t.Fatalf("flushes = %d", tgt.Flushes)
	}
}

func TestUnalignedWriteRejected(t *testing.T) {
	eng, _, ini := rig(t, transport.RDMA)
	var got error
	ini.Write(0, make([]byte, 100), func(err error) { got = err })
	eng.Run()
	if got == nil {
		t.Fatal("unaligned write accepted")
	}
	// An initiator that misjudges the block size gets the capsule past
	// its own check; the target's device refuses it.
	got = nil
	NewInitiator(ini.c, "target", 100).Write(0, make([]byte, 100), func(err error) { got = err })
	eng.Run()
	if !errors.Is(got, rpc.ErrRemote) {
		t.Fatalf("unaligned capsule at the target: err = %v, want a remote error", got)
	}
}

// TestInitiatorRetriesTransientErrors pins the one retry layer of the
// remote read path, the initiator's. A command the device swallows
// comes back as a status error at the host's 2 ms deadline, before the
// rpc client's 5 ms timeout fires, and the initiator's retry serves the
// read; a media error on every attempt stops after MaxRetries and
// surfaces.
func TestInitiatorRetriesTransientErrors(t *testing.T) {
	for _, tc := range []struct {
		name    string
		kind    fault.Kind
		rate    float64
		wantErr bool
	}{
		{"swallowed command", fault.Timeout, 0.5, false},
		{"persistent media error", fault.MediaErr, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, tgt, ini := rig(t, transport.RDMA)
			tgt.host.SetDeadline(2 * sim.Millisecond)
			tgt.host.Device().SetFaultPlan(fault.NewPlan(1, "nvme").Set(tc.kind, tc.rate))
			ini.c.Timeout = 5 * sim.Millisecond
			ini.MaxRetries = 3
			ini.RetryBackoff = 100 * sim.Microsecond
			var got error
			done := false
			ini.Read(0, 1, func(_ []byte, err error) { got, done = err, true })
			eng.Run()
			switch {
			case !done:
				t.Fatal("the read never resolved")
			case ini.c.Timeouts != 0:
				t.Fatalf("rpc client timed out %d times: the host's deadline must answer first", ini.c.Timeouts)
			case tc.wantErr && (!errors.Is(got, rpc.ErrRemote) || ini.Retries != int64(ini.MaxRetries)):
				t.Fatalf("err = %v after %d retries, want a remote status error after %d", got, ini.Retries, ini.MaxRetries)
			case !tc.wantErr && (got != nil || ini.Retries < 1):
				t.Fatalf("err = %v after %d retries, want success after at least one", got, ini.Retries)
			}
		})
	}
}

func TestOutOfRangeReadReportsStatus(t *testing.T) {
	eng, _, ini := rig(t, transport.RDMA)
	var got error
	ini.Read(1<<40, 1, func(_ []byte, err error) { got = err })
	eng.Run()
	if got == nil || !errors.Is(got, rpc.ErrRemote) {
		t.Fatalf("err = %v", got)
	}
}

func TestRemoteVsLocalLatencyShape(t *testing.T) {
	// Remote 4K read ≈ local flash read + ~1 network RTT; the remote
	// penalty over this fabric must stay small relative to flash time
	// (ReFlex's "remote flash ≈ local flash" with fast transports).
	eng, _, ini := rig(t, transport.RDMA)
	var doneAt sim.Time
	ini.Read(0, 1, func([]byte, error) { doneAt = eng.Now() })
	eng.Run()
	remote := doneAt.Sub(0)
	flash := nvme.ReadLatency
	if remote < sim.Duration(flash) {
		t.Fatalf("remote read %v faster than flash %v", remote, flash)
	}
	if remote > sim.Duration(flash)*13/10 {
		t.Fatalf("remote read %v more than 30%% over local flash %v", remote, flash)
	}
}

// BenchmarkRemoteRead4K reads written 4 KiB blocks over RDMA in
// bursts of 64: initiator capsule, rpc envelope, transport, target,
// queued device read, pooled payload back. A steady-state burst must
// allocate nothing.
func BenchmarkRemoteRead4K(b *testing.B) {
	eng, _, ini := rig(b, transport.RDMA)
	block := make([]byte, 4096)
	for lba := int64(0); lba < 1000; lba++ {
		ini.Write(lba, block, func(error) {})
	}
	eng.Run()
	cb := func(_ []byte, err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	i := 0
	burst := func() {
		for end := i + 64; i < end; i++ {
			ini.Read(int64(i%1000), 1, cb)
		}
		eng.Run()
	}
	burst()
	if a := testing.AllocsPerRun(20, burst); a != 0 {
		b.Fatalf("a burst of 64 reads allocates %v objects, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += 64 {
		burst()
	}
}

func TestRoundTripAllocFree(t *testing.T) {
	// With telemetry disarmed, a full write+flush round trip —
	// initiator capsule → rpc envelope → transport frames → target
	// handler → nvme device and back — must run entirely out of the
	// free lists (reads: TestReadLendsPooledPayload). The first laps
	// warm every pool on the path (wire capsules, rpc calls, reassembly,
	// nvme contexts).
	eng, _, ini := rig(t, transport.RDMA)
	var werr, ferr error
	wcb := func(err error) { werr = err }
	fcb := func(err error) { ferr = err }
	payload := make([]byte, 4096)
	for i := 0; i < 4; i++ {
		ini.Write(0, payload, wcb)
		ini.Flush(fcb)
		eng.Run()
	}
	if werr != nil || ferr != nil {
		t.Fatal(werr, ferr)
	}
	allocs := testing.AllocsPerRun(200, func() {
		ini.Write(0, payload, wcb)
		ini.Flush(fcb)
		eng.Run()
	})
	if werr != nil || ferr != nil {
		t.Fatal(werr, ferr)
	}
	if allocs != 0 {
		t.Fatalf("transport→rpc→nvmeof round trip allocates %v/op; want 0", allocs)
	}
}
