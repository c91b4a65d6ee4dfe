package rpc

import (
	"errors"
	"testing"

	"hyperion/internal/netsim"
	"hyperion/internal/sim"
	"hyperion/internal/transport"
)

func rig(t testing.TB, mode Mode) (*sim.Engine, *Server, *Client) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := netsim.New(eng, netsim.DefaultConfig())
	sn, err := net.Attach("server")
	if err != nil {
		t.Fatal(err)
	}
	cn, err := net.Attach("client")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, transport.New(eng, transport.RDMA, sn), mode)
	cli := NewClient(eng, transport.New(eng, transport.RDMA, cn))
	return eng, srv, cli
}

func TestCallRoundTrip(t *testing.T) {
	eng, srv, cli := rig(t, RunToCompletion)
	srv.Handle("echo", func(arg any, respond func(any, int, error)) {
		respond(arg, 64, nil)
	})
	var got any
	cli.Call("server", "echo", "hello", 64, func(val any, err error) {
		if err != nil {
			t.Error(err)
		}
		got = val
	})
	eng.Run()
	if got != "hello" {
		t.Fatalf("got %v", got)
	}
}

func TestNoMethod(t *testing.T) {
	eng, _, cli := rig(t, RunToCompletion)
	var got error
	cli.Call("server", "missing", nil, 64, func(val any, err error) { got = err })
	eng.Run()
	if !errors.Is(got, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", got)
	}
}

func TestRemoteError(t *testing.T) {
	eng, srv, cli := rig(t, RunToCompletion)
	srv.Handle("fail", func(arg any, respond func(any, int, error)) {
		respond(nil, 0, errors.New("storage exploded"))
	})
	var got error
	cli.Call("server", "fail", nil, 64, func(val any, err error) { got = err })
	eng.Run()
	if got == nil || !errors.Is(got, ErrRemote) {
		t.Fatalf("err = %v", got)
	}
	if srv.Errors != 1 {
		t.Fatalf("server errors = %d", srv.Errors)
	}
}

func TestAsyncRespond(t *testing.T) {
	eng, srv, cli := rig(t, RunToCompletion)
	srv.Handle("slow", func(arg any, respond func(any, int, error)) {
		eng.After(70*sim.Microsecond, "storage", func() { respond(42, 64, nil) })
	})
	var got any
	var at sim.Time
	cli.Call("server", "slow", nil, 64, func(val any, err error) {
		got = val
		at = eng.Now()
	})
	eng.Run()
	if got != 42 {
		t.Fatalf("got %v", got)
	}
	if at.Sub(0) < 70*sim.Microsecond {
		t.Fatalf("completed at %v, before storage latency elapsed", at)
	}
}

func TestTimeout(t *testing.T) {
	eng, srv, cli := rig(t, RunToCompletion)
	srv.Handle("void", func(arg any, respond func(any, int, error)) {
		// never responds
	})
	cli.Timeout = 1 * sim.Millisecond
	var got error
	cli.Call("server", "void", nil, 64, func(val any, err error) { got = err })
	eng.Run()
	if !errors.Is(got, ErrTimeout) {
		t.Fatalf("err = %v", got)
	}
	if cli.Timeouts != 1 {
		t.Fatalf("timeouts = %d", cli.Timeouts)
	}
}

func TestManyConcurrentCalls(t *testing.T) {
	eng, srv, cli := rig(t, RunToCompletion)
	srv.Handle("inc", func(arg any, respond func(any, int, error)) {
		respond(arg.(int)+1, 64, nil)
	})
	results := map[int]bool{}
	for i := 0; i < 200; i++ {
		i := i
		cli.Call("server", "inc", i, 64, func(val any, err error) {
			if err != nil {
				t.Error(err)
				return
			}
			if val.(int) != i+1 {
				t.Errorf("inc(%d) = %v", i, val)
			}
			results[i] = true
		})
	}
	eng.Run()
	if len(results) != 200 {
		t.Fatalf("completed %d/200", len(results))
	}
}

func TestQueuedModeSerializes(t *testing.T) {
	// Queued mode must process one request at a time with dispatch
	// overhead; run-to-completion responds faster for the same load.
	latency := func(mode Mode) sim.Duration {
		eng, srv, cli := rig(t, mode)
		srv.Handle("op", func(arg any, respond func(any, int, error)) {
			respond(1, 64, nil)
		})
		var last sim.Time
		n := 0
		for i := 0; i < 50; i++ {
			cli.Call("server", "op", nil, 64, func(val any, err error) {
				n++
				last = eng.Now()
			})
		}
		eng.Run()
		if n != 50 {
			t.Fatalf("completed %d/50", n)
		}
		return last.Sub(0)
	}
	rtc, queued := latency(RunToCompletion), latency(Queued)
	if rtc >= queued {
		t.Fatalf("run-to-completion %v not faster than queued %v", rtc, queued)
	}
}

// TestQueuedModeSteadyStateAllocFree pins the queued server's FIFO: a
// backlog that drains rewinds its backing array, so once the queue, the
// pools and the event heap have seen one batch, serving the next
// allocates nothing.
func TestQueuedModeSteadyStateAllocFree(t *testing.T) {
	eng, srv, cli := rig(t, Queued)
	srv.Handle("op", func(arg any, respond func(any, int, error)) { respond(nil, 64, nil) })
	done := 0
	cb := func(any, error) { done++ }
	batch := func() {
		for i := 0; i < 16; i++ {
			cli.Call("server", "op", nil, 64, cb)
		}
		eng.Run()
	}
	batch()
	if n := testing.AllocsPerRun(50, batch); n != 0 {
		t.Fatalf("steady-state queued batch allocated %v times, want 0", n)
	}
	if done != 16*52 {
		t.Fatalf("completed %d/%d", done, 16*52)
	}
}

func BenchmarkCall(b *testing.B) {
	eng, srv, cli := rig(b, RunToCompletion)
	srv.Handle("nop", func(arg any, respond func(any, int, error)) { respond(nil, 64, nil) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cli.Call("server", "nop", nil, 64, func(any, error) {})
		if i%64 == 0 {
			eng.Run()
		}
	}
	eng.Run()
}
