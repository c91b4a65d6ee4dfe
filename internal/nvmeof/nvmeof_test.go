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
				got = data
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

// TestKeptReadSurvivesLaterReads: the device lends a read's buffer to
// the target only until its handler returns and serves the next read
// from it, so a payload the initiator keeps must be the target's own
// copy — unchanged by later reads of other blocks through the same
// target.
func TestKeptReadSurvivesLaterReads(t *testing.T) {
	eng, _, ini := rig(t, transport.RDMA)
	for lba := int64(0); lba < 8; lba++ {
		ini.Write(lba, bytes.Repeat([]byte{byte(0x10 + lba)}, 4096), func(err error) {
			if err != nil {
				t.Error(err)
			}
		})
	}
	eng.Run()
	var kept []byte
	ini.Read(3, 1, func(data []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		kept = data
	})
	eng.Run()
	for i := 0; i < 32; i++ {
		ini.Read(int64(i%8), 1, func([]byte, error) {})
		eng.Run()
	}
	if !bytes.Equal(kept, bytes.Repeat([]byte{0x13}, 4096)) {
		t.Fatal("a payload the initiator kept changed under later reads through the target")
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

func BenchmarkRemoteRead4K(b *testing.B) {
	eng, _, ini := rig(b, transport.RDMA)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ini.Read(int64(i%1000), 1, func([]byte, error) {})
		if i%64 == 0 {
			eng.Run()
		}
	}
	eng.Run()
}

func TestRoundTripAllocFree(t *testing.T) {
	// With telemetry disarmed, a full write+flush round trip —
	// initiator capsule → rpc envelope → transport frames → target
	// handler → nvme device and back — must run entirely out of the
	// free lists. Reads are exempt from the pin: the target copies the
	// device's lent buffer into the response the initiator keeps, which
	// is one deliberate allocation. The first laps warm every pool on the
	// path (wire capsules, rpc calls, reassembly, nvme contexts).
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
