package seg

import (
	"errors"
	"testing"

	"hyperion/internal/fault"
	"hyperion/internal/nvme"
	"hyperion/internal/sim"
)

// Fault-injection coverage: device-level media errors must surface as
// errors through the async store API, never as silent corruption, and
// the store must keep serving once the device recovers.
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

	// 100% failure: every async read errors out.
	dev.SetFaultPlan(fault.NewPlan(42, "nvme").Set(fault.MediaErr, 1.0))
	var rerr error
	s.Read(id, 0, 8192, func(data []byte, err error) { rerr = err })
	eng.Run()
	if rerr == nil {
		t.Fatal("read through failing device succeeded")
	}
	var werr2 error
	s.Write(id, 0, payload, func(err error) { werr2 = err })
	eng.Run()
	if werr2 == nil {
		t.Fatal("write through failing device succeeded")
	}

	// Recovery: faults off, service resumes with intact data.
	dev.SetFaultPlan(nil)
	var got []byte
	var gerr error
	s.Read(id, 0, 8192, func(data []byte, err error) { got, gerr = data, err })
	eng.Run()
	if gerr != nil || len(got) != 8192 {
		t.Fatalf("post-recovery read = %d bytes, %v", len(got), gerr)
	}
	if dev.Counters.Value("injected_media_errors") < 2 {
		t.Fatalf("injected_media_errors = %d", dev.Counters.Value("injected_media_errors"))
	}
}

func TestPartialFaultRateStillCompletesEventually(t *testing.T) {
	// At a 30% fault rate, a retry loop (the caller's job) converges.
	eng := sim.NewEngine(1)
	cfg := nvme.DefaultConfig("flaky")
	cfg.Blocks = 1 << 18
	dev := nvme.New(eng, cfg)
	host := nvme.NewHost(dev, nil)
	dev.SetFaultPlan(fault.NewPlan(7, "nvme").Set(fault.MediaErr, 0.3))
	ok := 0
	attempts := 0
	var try func()
	try = func() {
		attempts++
		if attempts > 50 {
			return
		}
		_ = host.Read(0, 0, 1, func(_ []byte, st uint16) {
			if st == nvme.StatusOK {
				ok++
				return
			}
			try()
		})
	}
	for i := 0; i < 10; i++ {
		attempts = 0
		try()
		eng.Run()
	}
	if ok != 10 {
		t.Fatalf("completed %d/10 reads with retries", ok)
	}
	if f := dev.Counters.Value("injected_media_errors"); f == 0 {
		t.Fatal("no faults were injected at 30% rate")
	}
}

func TestCheckpointFailsCleanlyOnFaults(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := nvme.DefaultConfig("flaky")
	cfg.Blocks = 1 << 18
	dev := nvme.New(eng, cfg)
	host := nvme.NewHost(dev, nil)
	scfg := DefaultConfig()
	scfg.DRAMBytes = 16 << 20
	scfg.CheckpointEvery = 0
	s := New(eng, scfg, []*nvme.Host{host})
	if _, err := s.Alloc(OID(1, 1), 4096, true, HintAuto); err != nil {
		t.Fatal(err)
	}
	dev.SetFaultPlan(fault.NewPlan(9, "nvme").Set(fault.MediaErr, 1.0))
	var cerr error
	s.Checkpoint(func(err error) { cerr = err })
	eng.Run()
	if cerr == nil {
		t.Fatal("checkpoint on failing device reported success")
	}
	if !errors.Is(cerr, cerr) { // sanity: a real error object came back
		t.Fatal("nil-ish error")
	}
}
