// Package nvmeof implements NVMe-over-Fabrics on Hyperion: a target that
// exports a local NVMe device over any of the application-selected
// transports (TCP, UDP, RDMA, Homa — §2's application-defined network
// transport), and an initiator offering the familiar block verbs. E14
// sweeps this path across transports.
package nvmeof

import (
	"errors"
	"fmt"
	"strings"

	"hyperion/internal/netsim"
	"hyperion/internal/nvme"
	"hyperion/internal/rpc"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
	"hyperion/internal/wire"
)

// Method names on the wire.
const (
	MethodRead  = "nvmeof.read"
	MethodWrite = "nvmeof.write"
	MethodFlush = "nvmeof.flush"
)

// Capsule wire layouts. Command arguments travel as pooled wire.Buf
// capsules (big-endian fixed-offset fields, like the fabrics SQE they
// model) rather than boxed Go structs: a read capsule is LBA at 0 and
// block count at 8; a write capsule is LBA at 0 with the payload
// in-capsule from 8. The rpc layer refcounts capsules per attempt, so
// retried and straggling deliveries each own their bytes.
const (
	capLBAOff    = 0
	capBlocksOff = 8
	readCapLen   = 12
	writeHdrLen  = 8
)

// EncodeReadArgs fills a pooled capsule for a read of blocks at lba.
// The caller owns the returned reference.
//
//wire:owns
func EncodeReadArgs(p *wire.Pool, lba int64, blocks int) *wire.Buf {
	b := p.Get(readCapLen)
	bs := b.Bytes()
	wire.PutBE64At(bs, capLBAOff, uint64(lba))
	wire.PutBE32At(bs, capBlocksOff, uint32(blocks))
	return b
}

// DecodeReadArgs reads a read capsule.
func DecodeReadArgs(bs []byte) (lba int64, blocks int) {
	return int64(wire.BE64At(bs, capLBAOff)), int(wire.BE32At(bs, capBlocksOff))
}

// EncodeWriteArgs fills a pooled capsule for a write of data at lba.
// The caller owns the returned reference.
//
//wire:owns
func EncodeWriteArgs(p *wire.Pool, lba int64, data []byte) *wire.Buf {
	b := p.Get(writeHdrLen + len(data))
	bs := b.Bytes()
	wire.PutBE64At(bs, capLBAOff, uint64(lba))
	copy(bs[writeHdrLen:], data)
	return b
}

// DecodeWriteArgs reads a write capsule; data aliases the capsule and
// is valid only while the capsule reference is held.
func DecodeWriteArgs(bs []byte) (lba int64, data []byte) {
	return int64(wire.BE64At(bs, capLBAOff)), bs[writeHdrLen:]
}

// ErrStatus reports a non-OK NVMe completion status.
var ErrStatus = errors.New("nvmeof: device status")

// errBadCapsule reports a request whose argument is not a capsule.
var errBadCapsule = errors.New("nvmeof: bad capsule")

// Target exports one NVMe host over an RPC server.
type Target struct {
	host *nvme.Host
	srv  *rpc.Server
	ops  sim.FreeList[tgtOp]

	Reads, Writes, Flushes int64
}

// tgtOp bridges one in-flight command's NVMe completion back to its rpc
// respond function with prebound callbacks; instances cycle through the
// target's free list.
type tgtOp struct {
	t       *Target
	respond func(any, int, error)
	readFn  func(data []byte, st uint16)
	stFn    func(st uint16)
}

func (t *Target) getOp(respond func(any, int, error)) *tgtOp {
	op, fresh := t.ops.Get()
	if fresh {
		op.t = t
		op.readFn = op.onRead
		op.stFn = op.onStatus
	}
	op.respond = respond
	return op
}

func (t *Target) putOp(op *tgtOp) {
	op.respond = nil
	t.ops.Put(op)
}

// onRead answers a read. The device lends data only until onRead
// returns and the response slice travels on to the initiator, so the
// target copies it into a slice the response owns.
func (op *tgtOp) onRead(data []byte, st uint16) {
	respond := op.respond
	op.t.putOp(op)
	if st != nvme.StatusOK {
		respond(nil, 0, fmt.Errorf("%w %#x", ErrStatus, st))
		return
	}
	respond(append([]byte(nil), data...), len(data)+64, nil)
}

func (op *tgtOp) onStatus(st uint16) {
	respond := op.respond
	op.t.putOp(op)
	if st != nvme.StatusOK {
		respond(nil, 0, fmt.Errorf("%w %#x", ErrStatus, st))
		return
	}
	respond(true, 64, nil)
}

// NewTarget registers the NVMe-oF methods on srv, serving from host.
// Commands run on the device's queue pair qid.
func NewTarget(srv *rpc.Server, host *nvme.Host, qid int) *Target {
	t := &Target{host: host, srv: srv}
	srv.Handle(MethodRead, func(arg any, respond func(any, int, error)) {
		b, ok := arg.(*wire.Buf)
		if !ok || b.Len() < readCapLen {
			respond(nil, 0, errBadCapsule)
			return
		}
		lba, blocks := DecodeReadArgs(b.Bytes())
		t.Reads++
		// The server's active span joins the RPC leg to the NVMe leg of
		// the same request (0 when the caller did not tag one).
		op := t.getOp(respond)
		if err := host.ReadSpan(qid, lba, blocks, srv.ActiveSpan(), op.readFn); err != nil {
			t.putOp(op)
			respond(nil, 0, err)
		}
	})
	srv.Handle(MethodWrite, func(arg any, respond func(any, int, error)) {
		b, ok := arg.(*wire.Buf)
		if !ok || b.Len() < writeHdrLen {
			respond(nil, 0, errBadCapsule)
			return
		}
		lba, data := DecodeWriteArgs(b.Bytes())
		t.Writes++
		// The capsule outlives this handler only until it returns; the
		// device copies the payload synchronously on submission (doorbell
		// rings are posted writes executed in-line), so the alias is safe.
		op := t.getOp(respond)
		if err := host.WriteSpan(qid, lba, data, srv.ActiveSpan(), op.stFn); err != nil {
			t.putOp(op)
			respond(nil, 0, err)
		}
	})
	srv.Handle(MethodFlush, func(arg any, respond func(any, int, error)) {
		t.Flushes++
		op := t.getOp(respond)
		if err := host.FlushSpan(qid, srv.ActiveSpan(), op.stFn); err != nil {
			t.putOp(op)
			respond(nil, 0, err)
		}
	})
	return t
}

// Initiator is the client side.
type Initiator struct {
	c      *rpc.Client
	target netsim.Addr
	bs     int
	caps   *wire.Pool

	// Retry policy. Zero values (the default) keep every verb a single
	// attempt, byte-identical to the unarmed initiator. With
	// MaxRetries > 0, transient failures — request timeouts and remote
	// device-status errors (media errors are transient in this model) —
	// are retried up to that many extra times with RetryBackoff<<attempt
	// between attempts.
	MaxRetries   int
	RetryBackoff sim.Duration

	// Span is the trace context stamped on subsequent verbs (0 =
	// untagged). Harnesses set it per operation when tracing is armed.
	Span telemetry.RequestID

	ops sim.FreeList[opCtx]

	Retries int64 // retry attempts actually issued
}

// NewInitiator builds an initiator talking to target. blockSize must
// match the remote device.
func NewInitiator(c *rpc.Client, target netsim.Addr, blockSize int) *Initiator {
	return &Initiator{c: c, target: target, bs: blockSize, caps: wire.NewPool(readCapLen)}
}

// retryable reports whether an error is worth another attempt: a
// timed-out request or a remote NVMe status error. Remote errors cross
// the wire as strings, so ErrStatus is matched by its message.
func (i *Initiator) retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, rpc.ErrTimeout) {
		return true
	}
	return errors.Is(err, rpc.ErrRemote) && strings.Contains(err.Error(), ErrStatus.Error())
}

// opCtx carries one logical verb through its attempts with prebound
// callbacks; instances cycle through the initiator's free list.
type opCtx struct {
	i        *Initiator
	method   string
	capsule  *wire.Buf // base reference, held until the verb resolves
	argBytes int
	span     telemetry.RequestID
	tries    int
	readCb   func(data []byte, err error) // read resolution
	doneCb   func(err error)              // write/flush resolution
	rpcFn    func(val any, err error)
	retryFn  func()
	timer    sim.EventRef // pending retry backoff, zeroed by the recycle reset
}

func (i *Initiator) getOp() *opCtx {
	op, fresh := i.ops.Get()
	if fresh {
		op.i = i
		op.rpcFn = op.onResult
		op.retryFn = op.attempt
	}
	return op
}

func (op *opCtx) attempt() {
	op.i.c.CallSpan(op.i.target, op.method, argOf(op.capsule), op.argBytes, op.span, op.rpcFn)
}

// argOf boxes a capsule for the rpc layer; a nil *wire.Buf (flush)
// becomes a nil interface so rpc skips capsule refcounting entirely.
func argOf(b *wire.Buf) any {
	if b == nil {
		return nil
	}
	return b
}

// onResult resolves or retries one attempt's outcome.
func (op *opCtx) onResult(val any, err error) {
	i := op.i
	if i.retryable(err) && op.tries < i.MaxRetries {
		i.Retries++
		backoff := i.RetryBackoff << uint(op.tries)
		op.tries++
		if backoff > 0 {
			op.timer = i.c.Engine().After(backoff, "nvmeof.retry", op.retryFn)
		} else {
			op.attempt()
		}
		return
	}
	if op.capsule != nil {
		op.capsule.Release()
	}
	readCb, doneCb := op.readCb, op.doneCb
	*op = opCtx{i: i, rpcFn: op.rpcFn, retryFn: op.retryFn}
	i.ops.Put(op)
	if readCb != nil {
		if err != nil {
			readCb(nil, err)
			return
		}
		d, ok := val.([]byte)
		if !ok {
			readCb(nil, fmt.Errorf("nvmeof: bad response %T", val))
			return
		}
		readCb(d, nil)
		return
	}
	doneCb(err)
}

// Read fetches blocks; cb receives the data.
func (i *Initiator) Read(lba int64, blocks int, cb func(data []byte, err error)) {
	op := i.getOp()
	op.method = MethodRead
	op.capsule = EncodeReadArgs(i.caps, lba, blocks)
	op.argBytes = 64
	op.span = i.Span
	op.readCb = cb
	op.attempt()
}

// Write stores data (len must be a multiple of the block size).
func (i *Initiator) Write(lba int64, data []byte, cb func(err error)) {
	if len(data)%i.bs != 0 {
		cb(fmt.Errorf("nvmeof: unaligned write of %d bytes", len(data)))
		return
	}
	op := i.getOp()
	op.method = MethodWrite
	op.capsule = EncodeWriteArgs(i.caps, lba, data)
	op.argBytes = len(data) + 64
	op.span = i.Span
	op.doneCb = cb
	op.attempt()
}

// Flush hardens all writes.
func (i *Initiator) Flush(cb func(err error)) {
	op := i.getOp()
	op.method = MethodFlush
	op.argBytes = 64
	op.span = i.Span
	op.doneCb = cb
	op.attempt()
}
