package seg

import (
	"bytes"
	"testing"

	"hyperion/internal/fault"
	"hyperion/internal/nvme"
	"hyperion/internal/sim"
)

// Fault-injection coverage: device-level media errors must surface as
// errors through the queued Store.Write, never as silent corruption,
// and the store must keep serving once the device recovers.
func TestDeviceFaultsPropagateThroughStore(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := nvme.DefaultConfig("flaky")
	cfg.Blocks = 1 << 20
	dev := nvme.New(eng, cfg)
	host := nvme.NewHost(dev, nil)
	scfg := DefaultConfig()
	scfg.DRAMBytes = 16 << 20
	scfg.CheckpointEvery = 0
	s := New(eng, scfg, []*nvme.Host{host})

	id := OID(5, 5)
	if _, err := s.Alloc(id, 8192, true, HintAuto); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 8192)
	var werr error
	s.Write(id, 0, payload, func(err error) { werr = err })
	eng.Run()
	if werr != nil {
		t.Fatal(werr)
	}

	// 100% failure: an aligned queued write fails, and so does an
	// unaligned one at its read-modify-write read.
	dev.SetFaultPlan(fault.NewPlan(42, "nvme").Set(fault.MediaErr, 1.0))
	var werr2, rmwErr error
	s.Write(id, 0, bytes.Repeat([]byte{0xBB}, 8192), func(err error) { werr2 = err })
	eng.Run()
	if werr2 == nil {
		t.Fatal("write through failing device succeeded")
	}
	s.Write(id, 100, []byte{0xBB}, func(err error) { rmwErr = err })
	eng.Run()
	if rmwErr == nil {
		t.Fatal("read-modify-write through failing device succeeded")
	}

	// Recovery: faults off, service resumes with intact data.
	dev.SetFaultPlan(nil)
	var werr3 error
	s.Write(id, 4096, []byte{0xCC}, func(err error) { werr3 = err })
	eng.Run()
	got, gerr := NewSyncView(s).ReadAt(id, 0, 8192)
	if werr3 != nil || gerr != nil {
		t.Fatalf("post-recovery write %v, read %v", werr3, gerr)
	}
	want := append(make([]byte, 4096), 0xCC)
	want = append(want, make([]byte, 4095)...)
	if !bytes.Equal(got, want) {
		t.Fatal("failed writes left bytes behind")
	}
	if dev.Counters.Value("injected_media_errors") < 2 {
		t.Fatalf("injected_media_errors = %d", dev.Counters.Value("injected_media_errors"))
	}
}
