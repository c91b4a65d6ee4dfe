// Package rpc is the flexible RPC interface of §2.4 (after Willow):
// clients drive requests directly to the DPU that owns the data
// (client-driven routing), and the server executes handlers
// run-to-completion — the shared-nothing fast path the paper advocates.
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

// Mode names the server execution discipline.
type Mode int

// RunToCompletion executes the handler inline at message delivery, the
// only discipline.
const RunToCompletion Mode = 0

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
// the receiving client after the value is extracted. A *wire.Buf value
// carries one reference, which the caller's callback receives; a
// response nobody reads releases it (Server.drop).
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
	handlers map[string]Handler

	resps sim.FreeList[response]
	ctxs  sim.FreeList[serveCtx]

	rec    *telemetry.Recorder
	active telemetry.RequestID // span of the request being served

	Requests, Errors int64
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

// NewServer wraps a transport endpoint. Its server runs every handler
// to completion; the mode argument stays because frozen cmd/hyperbench
// passes RunToCompletion.
func NewServer(eng *sim.Engine, ep transport.Endpoint, _ Mode) *Server {
	s := &Server{
		eng:      eng,
		ep:       ep,
		handlers: make(map[string]Handler),
	}
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
	s.serve(src, req)
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
		if b, ok := val.(*wire.Buf); ok {
			b.Release()
		}
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
	// A wire-capsule argument carries one reference for its delivery
	// (see Client.CallSpan); its bytes are valid only during the
	// handler's synchronous extent.
	if b, ok := arg.(*wire.Buf); ok {
		b.Release()
	}
}

func (s *Server) reply(dst netsim.Addr, resp *response, bytes int, span telemetry.RequestID) {
	err := s.ep.Send(dst, transport.Message{Payload: resp, Bytes: bytes, Span: span})
	if err != nil {
		s.drop(resp)
	}
}

// drop returns a response nobody will read to the pool, releasing the
// reference a *wire.Buf value carries.
func (s *Server) drop(r *response) {
	if b, ok := r.Val.(*wire.Buf); ok {
		b.Release()
	}
	s.putResp(r)
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
	// Timeout bounds every call: a call unanswered by then resolves
	// with ErrTimeout. The client sends each call once; a layer above
	// that wants another attempt issues one (nvmeof.Initiator does).
	Timeout sim.Duration

	reqs  sim.FreeList[request]
	calls sim.FreeList[call]

	rec *telemetry.Recorder

	Calls, Timeouts int64
}

// SetRecorder arms the telemetry plane: one span per Call covering
// the whole exchange, named after the method. Disarmed (nil) the call
// path is bit-identical to the unhooked client.
func (c *Client) SetRecorder(rec *telemetry.Recorder) { c.rec = rec }

// call is one Call in flight with its timeout timer, pooled on the
// client with a prebound timer function.
type call struct {
	c         *Client
	method    string
	span      telemetry.RequestID
	cb        func(val any, err error)
	start     sim.Time // send time, for the client-side span
	id        uint64   // request id
	timer     sim.EventRef
	timeoutFn func()
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
		resp.s.drop(resp) // a reply to a call that already timed out
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
// response or error. cb runs exactly once: with ErrTimeout when no
// response arrives within Timeout.
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
	cl.method = method
	cl.span = span
	cl.cb = cb
	cl.start = c.eng.Now()
	c.Calls++
	c.nextID++
	cl.id = c.nextID
	c.pending[cl.id] = cl
	cl.timer = c.eng.After(c.Timeout, "rpc.timeout", cl.timeoutFn)
	req := c.getReq()
	req.ID = cl.id
	req.Method = method
	req.Arg = arg
	req.Span = span
	// A wire-capsule argument gets one reference on the wire (released
	// server-side after the handler runs), on top of the base reference
	// the caller holds for the whole call, so a straggler owns its bytes.
	capsule, isCapsule := arg.(*wire.Buf)
	if isCapsule {
		//hyperlint:allow(bufown) custody crosses the wire: the server releases this reference after the handler runs, or the Send error branch below reclaims it
		capsule.Retain() //wire:sends the transport endpoint, inside req — same engine, released server-side after the handler
	}
	err := c.ep.Send(dst, transport.Message{Payload: req, Bytes: argBytes, Span: span})
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

func (c *Client) getCall() *call {
	cl, fresh := c.calls.Get()
	if fresh {
		cl.c = c
		cl.timeoutFn = cl.timeout
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
	*cl = call{c: c, timeoutFn: cl.timeoutFn}
	c.calls.Put(cl)
	cb(val, err)
}

// timeout fires when the call's timer expires: it surfaces ErrTimeout.
func (cl *call) timeout() {
	c := cl.c
	if c.pending[cl.id] != cl {
		return
	}
	delete(c.pending, cl.id)
	c.Timeouts++
	cl.finish(nil, ErrTimeout)
}

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
