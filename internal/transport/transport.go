// Package transport implements the application-selectable network
// transports of the Hyperion blueprint — UDP-, TCP-, RDMA-, and
// Homa-style — over the simulated Ethernet fabric. The paper's point is
// that the end-to-end hardware path can be specialized with an
// application-defined transport; this package provides four with
// distinct reliability, overhead, and congestion behaviour so the
// NVMe-oF and RPC experiments can sweep them.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hyperion/internal/netsim"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
	"hyperion/internal/wire"
)

// Kind selects a transport protocol.
type Kind int

const (
	UDP  Kind = iota // unreliable datagrams, software stack overhead
	TCP              // reliable go-back-N, small window, software overhead
	RDMA             // reliable go-back-N, large window, hardware offload
	Homa             // receiver-driven grants, SRPT, message-oriented
)

func (k Kind) String() string {
	switch k {
	case UDP:
		return "udp"
	case TCP:
		return "tcp"
	case RDMA:
		return "rdma"
	case Homa:
		return "homa"
	}
	return "invalid"
}

// Kinds lists all transports, for sweeps.
func Kinds() []Kind { return []Kind{UDP, TCP, RDMA, Homa} }

// FragBytes is the data payload carried per frame (plus header overhead
// on the wire).
const FragBytes = 4096

// headerBytes approximates L2–L4 headers per frame.
const headerBytes = 64

// Message is an application-level unit. Span is the request-scoped
// trace context; transports copy it onto every fragment and frame of
// the message and restore it on delivery, so a request id set by the
// sender survives fragmentation, retransmission and reassembly.
type Message struct {
	Payload any
	Bytes   int
	Span    telemetry.RequestID
}

// Endpoint is a transport instance bound to one NIC.
type Endpoint interface {
	// Send transmits msg to dst. Reliable transports deliver it exactly
	// once (or count it lost after giving up); UDP may silently drop.
	Send(dst netsim.Addr, msg Message) error
	// OnMessage installs the delivery handler.
	OnMessage(func(src netsim.Addr, msg Message))
	// Stats returns transport counters.
	Stats() *Stats
}

// Stats counts transport activity.
type Stats struct {
	Sent, Delivered, LostMessages       int64
	Retransmits, DataFrames, CtrlFrames int64
}

// ErrTooLarge is returned for messages beyond the transport's limit.
var ErrTooLarge = errors.New("transport: message too large")

// MaxMessageBytes bounds a single message (64 Mi is ample for the
// experiments).
const MaxMessageBytes = 64 << 20

// New creates an endpoint of the given kind on nic.
func New(eng *sim.Engine, kind Kind, nic *netsim.NIC) Endpoint {
	switch kind {
	case UDP:
		return newUDP(eng, nic)
	case TCP:
		return newReliable(eng, nic, reliableParams{
			Window:       64,
			RTO:          200 * sim.Microsecond,
			SendOverhead: 3 * sim.Microsecond,
			RecvOverhead: 3 * sim.Microsecond,
			PerFrameCPU:  500 * sim.Nanosecond,
		})
	case RDMA:
		return newReliable(eng, nic, reliableParams{
			Window:       256,
			RTO:          50 * sim.Microsecond,
			SendOverhead: 300 * sim.Nanosecond,
			RecvOverhead: 300 * sim.Nanosecond,
			PerFrameCPU:  0,
		})
	case Homa:
		return newHoma(eng, nic)
	default:
		panic(fmt.Sprintf("transport: unknown kind %d", kind))
	}
}

// fragsFor returns the number of fragments for a message of b bytes.
func fragsFor(b int) int { return max((b+FragBytes-1)/FragBytes, 1) }

// fragWire returns the wire size of fragment i of a b-byte message.
func fragWire(b, i int) int {
	if i < fragsFor(b)-1 {
		return FragBytes + headerBytes
	}
	return max(b-i*FragBytes, 1) + headerBytes
}

// dataFrag is the decoded header of a data frame. It exists only as a
// stack value around encode/decode — on the wire the fields live in
// the frame's pooled wire.Buf (big-endian, see the offsets below), and
// the application payload of the last fragment rides the frame's
// Payload field by reference.
type dataFrag struct {
	MsgID   uint64
	Index   int
	Total   int
	Bytes   int    // total message bytes
	Payload any    // carried on the last fragment only
	Seq     uint64 // connection sequence number (reliable transports)
	Span    telemetry.RequestID
}

// ctrlMsg is the decoded header of a control frame.
type ctrlMsg struct {
	Op      uint8 // ackOp, grantOp, doneOp, resendOp
	MsgID   uint64
	Seq     uint64 // cumulative ack (reliable) or granted frag count (homa)
	Missing []int  // explicit missing fragment indexes (homa resend)
}

const (
	ackOp uint8 = iota + 1
	grantOp
	doneOp
	resendOp
)

// Wire layout. One byte of frame kind, then big-endian fields at fixed
// offsets; a ctrl frame's missing-fragment list is a uint32 count at
// ctrlCountOff followed by that many uint32 indexes.
const (
	frameData uint8 = 1
	frameCtrl uint8 = 2

	kindOff      = 0
	ctrlOpOff    = 1
	msgIDOff     = 8
	seqOff       = 16
	bytesOff     = 24 // data frames
	indexOff     = 28
	totalOff     = 32
	dataHdrLen   = 36
	ctrlCountOff = 24 // ctrl frames
	ctrlHdrLen   = 28
)

// encodeData fills a pooled buffer with frag's wire header. The caller
// owns the returned reference.
//
//wire:owns
func encodeData(p *wire.Pool, frag dataFrag) *wire.Buf {
	b := p.Get(dataHdrLen)
	bs := b.Bytes()
	bs[kindOff] = frameData
	binary.BigEndian.PutUint64(bs[msgIDOff:], frag.MsgID)
	binary.BigEndian.PutUint64(bs[seqOff:], frag.Seq)
	binary.BigEndian.PutUint32(bs[bytesOff:], uint32(frag.Bytes))
	binary.BigEndian.PutUint32(bs[indexOff:], uint32(frag.Index))
	binary.BigEndian.PutUint32(bs[totalOff:], uint32(frag.Total))
	return b
}

// decodeData rebuilds the header view from a received frame; Payload
// and Span ride the frame itself.
func decodeData(f netsim.Frame) dataFrag {
	bs := f.Buf.Bytes()
	return dataFrag{
		MsgID:   binary.BigEndian.Uint64(bs[msgIDOff:]),
		Seq:     binary.BigEndian.Uint64(bs[seqOff:]),
		Bytes:   int(binary.BigEndian.Uint32(bs[bytesOff:])),
		Index:   int(binary.BigEndian.Uint32(bs[indexOff:])),
		Total:   int(binary.BigEndian.Uint32(bs[totalOff:])),
		Payload: f.Payload,
		Span:    f.Span,
	}
}

// encodeCtrl fills a pooled buffer with m's wire header. The caller
// owns the returned reference.
//
//wire:owns
func encodeCtrl(p *wire.Pool, m ctrlMsg) *wire.Buf {
	b := p.Get(ctrlHdrLen + 4*len(m.Missing))
	bs := b.Bytes()
	bs[kindOff] = frameCtrl
	bs[ctrlOpOff] = m.Op
	binary.BigEndian.PutUint64(bs[msgIDOff:], m.MsgID)
	binary.BigEndian.PutUint64(bs[seqOff:], m.Seq)
	binary.BigEndian.PutUint32(bs[ctrlCountOff:], uint32(len(m.Missing)))
	for i, idx := range m.Missing {
		binary.BigEndian.PutUint32(bs[ctrlHdrLen+4*i:], uint32(idx))
	}
	return b
}

// decodeCtrl rebuilds the header view, appending any missing-fragment
// indexes to scratch (callers reuse a per-endpoint slice; the result's
// Missing aliases it until the next decode). It only ever sees bytes
// encodeCtrl wrote in this process, so it trusts the count and returns
// no error; FuzzFrameHeaders pins the round trip.
func decodeCtrl(bs []byte, scratch []int) ctrlMsg {
	m := ctrlMsg{
		Op:    bs[ctrlOpOff],
		MsgID: binary.BigEndian.Uint64(bs[msgIDOff:]),
		Seq:   binary.BigEndian.Uint64(bs[seqOff:]),
	}
	if n := int(binary.BigEndian.Uint32(bs[ctrlCountOff:])); n > 0 {
		scratch = scratch[:0]
		for i := 0; i < n; i++ {
			scratch = append(scratch, int(binary.BigEndian.Uint32(bs[ctrlHdrLen+4*i:])))
		}
		m.Missing = scratch
	}
	return m
}

// frameKind classifies a received frame, ignoring anything without a
// wire buffer (raw test frames, foreign traffic).
func frameKind(f netsim.Frame) uint8 {
	if f.Buf == nil || f.Buf.Len() < 1 {
		return 0
	}
	return f.Buf.Bytes()[kindOff]
}
