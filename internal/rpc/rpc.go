// Package rpc is the flexible RPC interface of §2.4 (after Willow):
// clients drive requests directly to the DPU that owns the data
// (client-driven routing), and the server executes handlers either
// run-to-completion — the shared-nothing fast path the paper advocates —
// or through a queued worker, the ablation's baseline.
package rpc

import (
	"errors"
	"fmt"

	"hyperion/internal/netsim"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
	"hyperion/internal/transport"
	"hyperion/internal/wire"
)

// Mode selects the server execution discipline.
type Mode int

const (
	// RunToCompletion executes the handler inline at message delivery.
	RunToCompletion Mode = iota
	// Queued enqueues requests for a single dispatcher goroutine-model
	// with per-dispatch overhead (a CPU-style request queue).
	Queued
)

// Errors.
var (
	ErrTimeout  = errors.New("rpc: request timed out")
	ErrNoMethod = errors.New("rpc: no such method")
	ErrRemote   = errors.New("rpc: remote error")
)

// request is the wire envelope. Envelopes are pooled by the issuing
// client and travel by reference (a pointer boxes into an interface
// without allocating); the server returns them to their pool once the
// handler has been entered.
type request struct {
	ID     uint64
	Method string
	Arg    any
	Span   telemetry.RequestID
	c      *Client // origin pool
}

// response is the reply envelope, pooled by the server and released by
// the receiving client after the value is extracted.
type response struct {
	ID  uint64
	Val any
	Err string
	s   *Server // origin pool
}

// Handler serves one method. respond must be called exactly once; it
// may be called asynchronously after storage completes. respBytes is
// the response's wire size.
type Handler func(arg any, respond func(val any, respBytes int, err error))

// Server dispatches incoming requests to handlers.
type Server struct {
	eng      *sim.Engine
	ep       transport.Endpoint
	mode     Mode
	handlers map[string]Handler

	// Queued-mode state.
	queue            sim.Queue[queuedReq]
	draining         bool
	DispatchOverhead sim.Duration
	dispatchFn       func()

	resps sim.FreeList[response]
	ctxs  sim.FreeList[serveCtx]

	rec    *telemetry.Recorder
	active telemetry.RequestID // span of the request being served

	Requests, Errors int64
}

type queuedReq struct {
	src netsim.Addr
	req *request
}

// SetRecorder arms the telemetry plane: one span per served request,
// from handler entry to response send, named after the method.
// Disarmed (nil) the serve path is bit-identical to the unhooked
// server.
func (s *Server) SetRecorder(rec *telemetry.Recorder) { s.rec = rec }

// ActiveSpan returns the trace context of the request currently being
// served (0 outside a handler's synchronous extent). Handlers that
// fan out to storage or other services read it here to keep the
// request's spans joined across layers.
func (s *Server) ActiveSpan() telemetry.RequestID { return s.active }

// NewServer wraps a transport endpoint.
func NewServer(eng *sim.Engine, ep transport.Endpoint, mode Mode) *Server {
	s := &Server{
		eng:              eng,
		ep:               ep,
		mode:             mode,
		handlers:         make(map[string]Handler),
		DispatchOverhead: 2 * sim.Microsecond,
	}
	s.dispatchFn = s.dispatch
	ep.OnMessage(s.onMessage)
	return s
}

// Handle registers a method.
func (s *Server) Handle(method string, h Handler) { s.handlers[method] = h }

func (s *Server) onMessage(src netsim.Addr, msg transport.Message) {
	req, ok := msg.Payload.(*request)
	if !ok {
		return
	}
	s.Requests++
	if s.mode == RunToCompletion {
		s.serve(src, req)
		return
	}
	s.queue.Push(queuedReq{src: src, req: req})
	s.drain()
}

// drain processes the queue one item at a time with dispatch overhead,
// modeling a single CPU worker.
func (s *Server) drain() {
	if s.draining || s.queue.Len() == 0 {
		return
	}
	s.draining = true
	s.eng.After(s.DispatchOverhead, "rpc.dispatch", s.dispatchFn)
}

func (s *Server) dispatch() {
	next := s.queue.Pop()
	s.serve(next.src, next.req)
	s.draining = false
	s.drain()
}

// serveCtx carries one in-flight request through its handler with a
// prebound respond function; instances cycle through the server's free
// list (respond may run long after serve returns).
type serveCtx struct {
	s         *Server
	src       netsim.Addr
	id        uint64
	method    string
	span      telemetry.RequestID
	start     sim.Time
	done      bool
	respondFn func(val any, respBytes int, err error)
}

func (s *Server) getCtx() *serveCtx {
	sc, fresh := s.ctxs.Get()
	if fresh {
		sc.s = s
		sc.respondFn = sc.respond
	}
	return sc
}

func (sc *serveCtx) respond(val any, respBytes int, err error) {
	if sc.done {
		panic("rpc: respond called twice for " + sc.method)
	}
	sc.done = true
	s := sc.s
	resp := s.getResp()
	resp.ID = sc.id
	resp.Val = val
	if err != nil {
		s.Errors++
		resp.Err = err.Error()
		resp.Val = nil
	}
	if respBytes < 64 {
		respBytes = 64
	}
	if s.rec != nil {
		s.rec.Span("rpc.server", sc.method, sc.span, sc.start, s.eng.Now())
	}
	s.reply(sc.src, resp, respBytes, sc.span)
	s.ctxs.Put(sc)
}

func (s *Server) getResp() *response {
	r, _ := s.resps.Get()
	*r = response{s: s}
	return r
}

func (s *Server) serve(src netsim.Addr, req *request) {
	h, ok := s.handlers[req.Method]
	if !ok {
		s.Errors++
		resp := s.getResp()
		resp.ID = req.ID
		resp.Err = ErrNoMethod.Error() + ": " + req.Method
		s.reply(src, resp, 64, req.Span)
		if b, okb := req.Arg.(*wire.Buf); okb {
			b.Release()
		}
		req.release()
		return
	}
	sc := s.getCtx()
	sc.src = src
	sc.id = req.ID
	sc.method = req.Method
	sc.span = req.Span
	sc.start = s.eng.Now()
	sc.done = false
	arg := req.Arg
	req.release() // envelope fields are copied; the arg lives on its own
	prev := s.active
	s.active = sc.span
	h(arg, sc.respondFn)
	s.active = prev
	// A wire-capsule argument carries one reference per delivered
	// attempt (see Client.attempt); its bytes are valid only during the
	// handler's synchronous extent.
	if b, ok := arg.(*wire.Buf); ok {
		b.Release()
	}
}

func (s *Server) reply(dst netsim.Addr, resp *response, bytes int, span telemetry.RequestID) {
	err := s.ep.Send(dst, transport.Message{Payload: resp, Bytes: bytes, Span: span})
	if err != nil {
		s.putResp(resp)
	}
}

func (s *Server) putResp(r *response) {
	r.Val = nil
	r.Err = ""
	s.resps.Put(r)
}

// Client issues requests.
type Client struct {
	eng     *sim.Engine
	ep      transport.Endpoint
	nextID  uint64
	pending map[uint64]*call
	Timeout sim.Duration

	// Retry policy. All three fields default to zero, which preserves
	// single-attempt semantics exactly (same events, same counters). With
	// MaxRetries > 0, a timed-out call is retried up to that many extra
	// times, waiting RetryBackoff<<attempt between attempts; if
	// DeadlineBudget > 0 the whole call (attempts + backoffs) must fit
	// within that budget measured from the first Send, otherwise the
	// caller sees ErrTimeout without further retries.
	MaxRetries     int
	RetryBackoff   sim.Duration
	DeadlineBudget sim.Duration

	reqs  sim.FreeList[request]
	calls sim.FreeList[call]

	rec *telemetry.Recorder

	Calls, Timeouts int64
	Retries         int64 // retry attempts actually issued
}

// SetRecorder arms the telemetry plane: one span per Call covering
// the whole exchange (all attempts and backoffs), named after the
// method. Disarmed (nil) the call path is bit-identical to the
// unhooked client.
func (c *Client) SetRecorder(rec *telemetry.Recorder) { c.rec = rec }

// call is one logical Call: the current attempt's timer and the retry
// state, pooled on the client with prebound timer functions.
type call struct {
	c         *Client
	dst       netsim.Addr
	method    string
	arg       any
	argBytes  int
	span      telemetry.RequestID
	cb        func(val any, err error)
	tries     int // attempts already timed out
	deadline  sim.Time
	start     sim.Time // first-attempt time, for the client-side span
	id        uint64   // current attempt's request id
	timer     sim.EventRef
	timeoutFn func()
	retryFn   func()
}

// NewClient wraps a transport endpoint.
func NewClient(eng *sim.Engine, ep transport.Endpoint) *Client {
	c := &Client{eng: eng, ep: ep, pending: make(map[uint64]*call), Timeout: 100 * sim.Millisecond}
	ep.OnMessage(c.onMessage)
	return c
}

// Engine exposes the client's engine so layers above (e.g. nvmeof) can
// schedule their own retry backoffs on the same clock.
func (c *Client) Engine() *sim.Engine { return c.eng }

func (c *Client) onMessage(src netsim.Addr, msg transport.Message) {
	resp, ok := msg.Payload.(*response)
	if !ok {
		return
	}
	cl, ok := c.pending[resp.ID]
	if !ok {
		return
	}
	delete(c.pending, resp.ID)
	c.eng.Cancel(cl.timer)
	cl.timer = sim.NoEvent
	val, errStr := resp.Val, resp.Err
	resp.s.putResp(resp)
	if errStr != "" {
		cl.finish(nil, fmt.Errorf("%w: %s", ErrRemote, errStr))
		return
	}
	cl.finish(val, nil)
}

// Call sends a request of argBytes wire size and invokes cb with the
// response or error. cb runs exactly once. When the client's retry
// policy is armed (MaxRetries > 0), timed-out attempts are retried
// with exponential backoff inside the deadline budget before cb sees
// ErrTimeout.
func (c *Client) Call(dst netsim.Addr, method string, arg any, argBytes int, cb func(val any, err error)) {
	c.CallSpan(dst, method, arg, argBytes, 0, cb)
}

// CallSpan is Call carrying a request-scoped trace context: the span
// id travels inside the request envelope to the server (where
// ActiveSpan exposes it to handlers) and tags the client-side span.
func (c *Client) CallSpan(dst netsim.Addr, method string, arg any, argBytes int, span telemetry.RequestID, cb func(val any, err error)) {
	if argBytes < 64 {
		argBytes = 64
	}
	cl := c.getCall()
	cl.dst = dst
	cl.method = method
	cl.arg = arg
	cl.argBytes = argBytes
	cl.span = span
	cl.cb = cb
	cl.start = c.eng.Now()
	if c.MaxRetries > 0 && c.DeadlineBudget > 0 {
		cl.deadline = c.eng.Now().Add(c.DeadlineBudget)
	}
	cl.attempt()
}

func (c *Client) getCall() *call {
	cl, fresh := c.calls.Get()
	if fresh {
		cl.c = c
		cl.timeoutFn = cl.timeout
		cl.retryFn = cl.retry
	}
	return cl
}

// finish resolves the call exactly once, recording the client-side
// span when armed, and recycles the call before invoking cb so the
// callback can immediately issue a follow-up request.
func (cl *call) finish(val any, err error) {
	c := cl.c
	if c.rec != nil {
		c.rec.Span("rpc.client", cl.method, cl.span, cl.start, c.eng.Now())
	}
	cb := cl.cb
	*cl = call{c: c, timeoutFn: cl.timeoutFn, retryFn: cl.retryFn}
	c.calls.Put(cl)
	cb(val, err)
}

// attempt issues one wire attempt with its own timeout timer.
func (cl *call) attempt() {
	c := cl.c
	c.Calls++
	c.nextID++
	cl.id = c.nextID
	c.pending[cl.id] = cl
	cl.timer = c.eng.After(c.Timeout, "rpc.timeout", cl.timeoutFn)
	req := c.getReq()
	req.ID = cl.id
	req.Method = cl.method
	req.Arg = cl.arg
	req.Span = cl.span
	// A wire-capsule argument gets one reference per attempt on the
	// wire (released server-side after the handler runs), on top of the
	// base reference the caller holds for the whole logical call —
	// retries and stragglers each own their bytes.
	capsule, isCapsule := cl.arg.(*wire.Buf)
	if isCapsule {
		//hyperlint:allow(bufown) custody crosses the wire: the server releases this reference after the handler runs, or the Send error branch below reclaims it
		capsule.Retain() //wire:sends the transport endpoint, inside req — same engine, released server-side after the handler
	}
	err := c.ep.Send(cl.dst, transport.Message{Payload: req, Bytes: cl.argBytes, Span: cl.span})
	if err != nil {
		delete(c.pending, cl.id)
		c.eng.Cancel(cl.timer)
		cl.timer = sim.NoEvent
		if isCapsule {
			capsule.Release()
		}
		req.release()
		cl.finish(nil, err)
	}
}

// timeout fires when the current attempt's timer expires: retry inside
// the policy and budget, otherwise surface ErrTimeout.
func (cl *call) timeout() {
	c := cl.c
	if c.pending[cl.id] != cl {
		return
	}
	delete(c.pending, cl.id)
	c.Timeouts++
	if cl.tries < c.MaxRetries {
		backoff := c.RetryBackoff << uint(cl.tries)
		// Retry only if another full attempt can still fit in the
		// budget; otherwise surface the timeout now rather than
		// burning the caller's remaining time on a doomed attempt.
		if cl.deadline == 0 || c.eng.Now().Add(backoff+c.Timeout) <= cl.deadline {
			cl.tries++
			c.Retries++
			if backoff > 0 {
				// The call left c.pending above, so nothing else cancels
				// this handle before the retry fires and attempt()
				// overwrites it with the next timeout timer.
				cl.timer = c.eng.After(backoff, "rpc.retry", cl.retryFn)
			} else {
				cl.attempt()
			}
			return
		}
	}
	cl.finish(nil, ErrTimeout)
}

func (cl *call) retry() { cl.attempt() }

func (c *Client) getReq() *request {
	r, fresh := c.reqs.Get()
	if fresh {
		r.c = c
	}
	return r
}

func (r *request) release() {
	r.Arg = nil
	r.Method = ""
	r.c.reqs.Put(r)
}
