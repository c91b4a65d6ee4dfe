package rpc

import (
	"errors"
	"testing"

	"hyperion/internal/netsim"
	"hyperion/internal/sim"
	"hyperion/internal/transport"
	"hyperion/internal/wire"
)

func rig(t testing.TB) (*sim.Engine, *Server, *Client) {
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
	srv := NewServer(eng, transport.New(eng, transport.RDMA, sn), RunToCompletion)
	cli := NewClient(eng, transport.New(eng, transport.RDMA, cn))
	return eng, srv, cli
}

func TestCallRoundTrip(t *testing.T) {
	eng, srv, cli := rig(t)
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
	eng, _, cli := rig(t)
	var got error
	cli.Call("server", "missing", nil, 64, func(val any, err error) { got = err })
	eng.Run()
	if !errors.Is(got, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", got)
	}
}

func TestRemoteError(t *testing.T) {
	eng, srv, cli := rig(t)
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
	eng, srv, cli := rig(t)
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
	eng, srv, cli := rig(t)
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

// TestLateReplyIsReturned: a reply that arrives after its call timed
// out is read by nobody, so the client hands its envelope back to the
// server's pool and releases the *wire.Buf it carries.
func TestLateReplyIsReturned(t *testing.T) {
	eng, srv, cli := rig(t)
	bufs := wire.NewPool(64)
	srv.Handle("late", func(arg any, respond func(any, int, error)) {
		eng.After(2*sim.Millisecond, "storage", func() { respond(bufs.Get(8), 72, nil) })
	})
	cli.Timeout = 1 * sim.Millisecond
	var got error
	cli.Call("server", "late", nil, 64, func(_ any, err error) { got = err })
	eng.Run()
	if !errors.Is(got, ErrTimeout) {
		t.Fatalf("err = %v, want %v", got, ErrTimeout)
	}
	if _, fresh := srv.resps.Get(); fresh {
		t.Error("the late reply's envelope did not return to the server's pool")
	}
	bufs.Get(8)
	if bufs.News != 1 {
		t.Errorf("the late reply's buffer was not released: the pool minted %d", bufs.News)
	}
}

func TestManyConcurrentCalls(t *testing.T) {
	eng, srv, cli := rig(t)
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

func BenchmarkCall(b *testing.B) {
	eng, srv, cli := rig(b)
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
