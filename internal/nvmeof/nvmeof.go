// Package nvmeof implements NVMe-over-Fabrics on Hyperion: a target that
// exports a local NVMe device over any of the application-selected
// transports (TCP, UDP, RDMA, Homa — §2's application-defined network
// transport), and an initiator offering the familiar block verbs. E14
// sweeps this path across transports.
package nvmeof

import (
	"encoding/binary"
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
	methodRead  = "nvmeof.read"
	methodWrite = "nvmeof.write"
	methodFlush = "nvmeof.flush"
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

// encodeReadArgs fills a pooled capsule for a read of blocks at lba.
// The caller owns the returned reference.
//
//wire:owns
func encodeReadArgs(p *wire.Pool, lba int64, blocks int) *wire.Buf {
	b := p.Get(readCapLen)
	bs := b.Bytes()
	binary.BigEndian.PutUint64(bs[capLBAOff:], uint64(lba))
	binary.BigEndian.PutUint32(bs[capBlocksOff:], uint32(blocks))
	return b
}

// decodeReadArgs reads a read capsule; one shorter than its fields is
// errBadCapsule.
func decodeReadArgs(bs []byte) (lba int64, blocks int, err error) {
	if len(bs) < readCapLen {
		return 0, 0, errBadCapsule
	}
	return int64(binary.BigEndian.Uint64(bs[capLBAOff:])), int(binary.BigEndian.Uint32(bs[capBlocksOff:])), nil
}

// encodeWriteArgs fills a pooled capsule for a write of data at lba.
// The caller owns the returned reference.
//
//wire:owns
func encodeWriteArgs(p *wire.Pool, lba int64, data []byte) *wire.Buf {
	b := p.Get(writeHdrLen + len(data))
	bs := b.Bytes()
	binary.BigEndian.PutUint64(bs[capLBAOff:], uint64(lba))
	copy(bs[writeHdrLen:], data)
	return b
}

// decodeWriteArgs reads a write capsule; data aliases the capsule and
// is valid only while the capsule reference is held. One shorter than
// its header is errBadCapsule.
func decodeWriteArgs(bs []byte) (lba int64, data []byte, err error) {
	if len(bs) < writeHdrLen {
		return 0, nil, errBadCapsule
	}
	return int64(binary.BigEndian.Uint64(bs[capLBAOff:])), bs[writeHdrLen:], nil
}

// capsule returns a request's capsule bytes: nil, which every decoder
// refuses, when the request carries no capsule.
func capsule(arg any) []byte {
	if b, ok := arg.(*wire.Buf); ok {
		return b.Bytes()
	}
	return nil
}

// ErrStatus reports a non-OK NVMe completion status.
var ErrStatus = errors.New("nvmeof: device status")

// errBadCapsule reports a request whose argument is not a capsule.
var errBadCapsule = errors.New("nvmeof: bad capsule")

// Target exports one NVMe host over an RPC server.
type Target struct {
	host *nvme.Host
	qid  int
	ops  sim.FreeList[tgtOp]
	data *wire.Pool // read payloads, lent to the initiator's callback

	Reads, Writes, Flushes int64
}

// tgtOp bridges one in-flight command's NVMe completion back to its rpc
// respond function: it is the command's Completer. Instances cycle
// through the target's free list.
type tgtOp struct {
	t       *Target
	respond func(any, int, error)
	read    bool // answer with the payload rather than an ack
}

// submit issues cmd on the target's queue with a pooled op as its
// Completer; on a submission error it answers respond at once.
func (t *Target) submit(cmd nvme.Command, respond func(any, int, error)) {
	op, fresh := t.ops.Get()
	if fresh {
		op.t = t
	}
	op.respond, op.read = respond, cmd.Opcode == nvme.OpRead
	if err := t.host.Submit(t.qid, cmd, op); err != nil {
		t.putOp(op)
		respond(nil, 0, err)
	}
}

func (t *Target) putOp(op *tgtOp) {
	op.respond = nil
	t.ops.Put(op)
}

// Complete answers the command. The device lends a read's data only
// until Complete returns and the response travels on to the initiator,
// so the target copies it into a pooled buffer whose reference the
// response carries; the initiator releases it once its callback has
// returned.
func (op *tgtOp) Complete(c nvme.Completion) {
	t, respond, read := op.t, op.respond, op.read
	t.putOp(op)
	switch {
	case c.Status != nvme.StatusOK:
		respond(nil, 0, fmt.Errorf("%w %#x", ErrStatus, c.Status))
	case read:
		b := t.data.Get(len(c.Data))
		copy(b.Bytes(), c.Data)
		respond(b, len(c.Data)+64, nil)
	default:
		respond(true, 64, nil)
	}
}

// NewTarget registers the NVMe-oF methods on srv, serving from host.
// Commands run on the device's queue pair qid.
func NewTarget(srv *rpc.Server, host *nvme.Host, qid int) *Target {
	bs := host.BlockSize()
	t := &Target{host: host, qid: qid, data: wire.NewPool(bs)}
	srv.Handle(methodRead, func(arg any, respond func(any, int, error)) {
		lba, blocks, err := decodeReadArgs(capsule(arg))
		if err != nil {
			respond(nil, 0, err)
			return
		}
		t.Reads++
		// The server's active span joins the RPC leg to the NVMe leg of
		// the same request (0 when the caller did not tag one).
		t.submit(nvme.Command{Opcode: nvme.OpRead, NSID: 1, LBA: lba, Blocks: blocks, Span: srv.ActiveSpan()}, respond)
	})
	srv.Handle(methodWrite, func(arg any, respond func(any, int, error)) {
		lba, data, err := decodeWriteArgs(capsule(arg))
		if err != nil {
			respond(nil, 0, err)
			return
		}
		t.Writes++
		// The capsule outlives this handler only until it returns; the
		// device copies the payload synchronously on submission (doorbell
		// rings are posted writes executed in-line), so the alias is safe.
		// A payload that is not whole blocks fails the device's length
		// check and is answered with ErrShortWrite.
		t.submit(nvme.Command{Opcode: nvme.OpWrite, NSID: 1, LBA: lba, Blocks: len(data) / bs, Data: data, Span: srv.ActiveSpan()}, respond)
	})
	srv.Handle(methodFlush, func(arg any, respond func(any, int, error)) {
		t.Flushes++
		t.submit(nvme.Command{Opcode: nvme.OpFlush, NSID: 1, Span: srv.ActiveSpan()}, respond)
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
	readCb   func(data []byte, err error) // read resolution; data is lent
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
		b, ok := val.(*wire.Buf)
		if !ok {
			readCb(nil, fmt.Errorf("nvmeof: bad response %T", val))
			return
		}
		readCb(b.Bytes(), nil)
		b.Release()
		return
	}
	doneCb(err)
}

// Read fetches blocks; cb receives the data, lent only until cb
// returns: a caller that keeps the bytes copies them.
func (i *Initiator) Read(lba int64, blocks int, cb func(data []byte, err error)) {
	op := i.getOp()
	op.method = methodRead
	op.capsule = encodeReadArgs(i.caps, lba, blocks)
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
	op.method = methodWrite
	op.capsule = encodeWriteArgs(i.caps, lba, data)
	op.argBytes = len(data) + 64
	op.span = i.Span
	op.doneCb = cb
	op.attempt()
}

// Flush hardens all writes.
func (i *Initiator) Flush(cb func(err error)) {
	op := i.getOp()
	op.method = methodFlush
	op.argBytes = 64
	op.span = i.Span
	op.doneCb = cb
	op.attempt()
}
