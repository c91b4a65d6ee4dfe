// Package trace generates the synthetic workloads the experiments run:
// YCSB-style key-value mixes over Zipfian keys, network attack traces
// for the fail2ban middleware, and connection traces for the L4 load
// balancer. The paper's substrate used production traffic; these
// generators exercise the same code paths with controlled, seeded
// distributions (documented substitution in DESIGN.md).
package trace

import (
	"encoding/binary"
	"slices"
	"strconv"

	"hyperion/internal/sim"
)

// KVOp is one key-value operation. Key and Value are lent by the
// generator: valid until its next Next, so a consumer that keeps them
// copies them.
type KVOp struct {
	Kind  byte // 'r' read, 'u' update, 'i' insert, 's' scan
	Key   []byte
	Value []byte
}

// YCSBMix selects a standard mix.
type YCSBMix int

const (
	// YCSBA is 50% reads / 50% updates.
	YCSBA YCSBMix = iota
	// YCSBB is 95% reads / 5% updates.
	YCSBB
	// YCSBC is 100% reads.
	YCSBC
)

func (m YCSBMix) String() string {
	switch m {
	case YCSBA:
		return "ycsb-a"
	case YCSBB:
		return "ycsb-b"
	case YCSBC:
		return "ycsb-c"
	}
	return "?"
}

// KVGen generates YCSB-style operations.
type KVGen struct {
	r    *sim.Rand
	zipf *sim.Zipf
	mix  YCSBMix
	keys uint64
	key  []byte // the last op's key, lent to the caller
	val  []byte // the last op's value, lent to the caller
}

// valueBytes is the size of every generated value.
const valueBytes = 256

// NewKVGen creates a generator over n keys with the given mix;
// theta=0.99 Zipfian like the YCSB default.
func NewKVGen(seed uint64, n uint64, mix YCSBMix) *KVGen {
	r := sim.NewRand(seed)
	return &KVGen{r: r, zipf: sim.NewZipf(r, n, 0.99), mix: mix, keys: n}
}

// AppendKey appends key i to dst in a fixed format: "user" and i in
// decimal, zero-padded to twelve digits (wider when i needs more).
func AppendKey(dst []byte, i uint64) []byte {
	var d [20]byte
	digits := strconv.AppendUint(d[:0], i, 10)
	dst = append(dst, "user"...)
	for n := len(digits); n < 12; n++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// LoadKeys returns every key once (for the load phase).
func (g *KVGen) LoadKeys() []uint64 {
	out := make([]uint64, g.keys)
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}

// AppendValue appends the deterministic value of a key to dst.
func (g *KVGen) AppendValue(dst []byte, key uint64) []byte {
	at := len(dst)
	dst = slices.Grow(dst, valueBytes)[:at+valueBytes]
	v := dst[at:]
	binary.LittleEndian.PutUint64(v, key)
	for i := 8; i < len(v); i++ {
		v[i] = byte(key + uint64(i))
	}
	return dst
}

// Next returns the next operation, its key and value in buffers the
// generator reuses.
func (g *KVGen) Next() KVOp {
	k := g.zipf.Next()
	var readPct int
	switch g.mix {
	case YCSBA:
		readPct = 50
	case YCSBB:
		readPct = 95
	case YCSBC:
		readPct = 100
	}
	g.key = AppendKey(g.key[:0], k)
	if g.r.Intn(100) < readPct {
		return KVOp{Kind: 'r', Key: g.key}
	}
	g.val = g.AppendValue(g.val[:0], k)
	return KVOp{Kind: 'u', Key: g.key, Value: g.val}
}

// Packet is one network packet for the middleware workloads.
type Packet struct {
	SrcIP    uint32
	DstIP    uint32
	SrcPort  uint16
	DstPort  uint16
	Proto    byte
	Flags    byte // TCP flags; SYN=0x02, ACK=0x10, FIN=0x01, RST=0x04
	Bytes    int
	AuthFail bool // ssh-style authentication failure indicator
}

// PacketBytes is the size of a marshalled packet header.
const PacketBytes = 20

// MarshalTo encodes the packet header into the context buffer
// b[:PacketBytes] (the eBPF programs parse this layout). It writes every
// byte of it, so a reused buffer needs no clearing.
func (p Packet) MarshalTo(b []byte) {
	_ = b[PacketBytes-1]
	binary.LittleEndian.PutUint32(b[0:], p.SrcIP)
	binary.LittleEndian.PutUint32(b[4:], p.DstIP)
	binary.LittleEndian.PutUint16(b[8:], p.SrcPort)
	binary.LittleEndian.PutUint16(b[10:], p.DstPort)
	b[12] = p.Proto
	b[13] = p.Flags
	binary.LittleEndian.PutUint32(b[14:], uint32(p.Bytes))
	var fail byte
	if p.AuthFail {
		fail = 1
	}
	b[18] = fail
	b[19] = 0
}

// AttackGen produces a mixed trace of benign traffic and brute-force
// attackers (repeated auth failures from a small set of sources) — the
// fail2ban workload.
type AttackGen struct {
	r          *sim.Rand
	attackers  []uint32
	AttackFrac float64
	FailProb   float64 // auth-failure probability per attacker packet
}

// NewAttackGen creates a generator with the given number of attacker
// sources.
func NewAttackGen(seed uint64, attackers int) *AttackGen {
	g := &AttackGen{r: sim.NewRand(seed), AttackFrac: 0.3, FailProb: 0.9}
	for i := 0; i < attackers; i++ {
		g.attackers = append(g.attackers, 0x0a000000|uint32(g.r.Intn(1<<16)))
	}
	return g
}

// Next generates one packet.
func (g *AttackGen) Next() Packet {
	p := Packet{
		DstIP:   0xC0A80001, // the protected service
		DstPort: 22,
		Proto:   6,
		Flags:   0x10,
		Bytes:   g.r.Intn(1400) + 60,
	}
	if g.r.Float64() < g.AttackFrac && len(g.attackers) > 0 {
		p.SrcIP = g.attackers[g.r.Intn(len(g.attackers))]
		p.SrcPort = uint16(1024 + g.r.Intn(60000))
		p.AuthFail = g.r.Float64() < g.FailProb
		return p
	}
	p.SrcIP = 0xC0000000 | uint32(g.r.Intn(1<<20))
	p.SrcPort = uint16(1024 + g.r.Intn(60000))
	p.AuthFail = g.r.Float64() < 0.01
	return p
}

// ConnGen produces load-balancer traffic: SYNs opening connections,
// data packets on open connections, FINs closing them.
type ConnGen struct {
	r           *sim.Rand
	open        []Packet // one representative packet per open connection
	NewConnProb float64
	CloseProb   float64
}

// NewConnGen creates a connection-trace generator.
func NewConnGen(seed uint64) *ConnGen {
	return &ConnGen{r: sim.NewRand(seed), NewConnProb: 0.2, CloseProb: 0.05}
}

// Next generates the next packet in the trace.
func (g *ConnGen) Next() Packet {
	if len(g.open) == 0 || g.r.Float64() < g.NewConnProb {
		p := Packet{
			SrcIP:   0x0b000000 | uint32(g.r.Intn(1<<22)),
			DstIP:   0xC0A80002,
			SrcPort: uint16(1024 + g.r.Intn(60000)),
			DstPort: 443,
			Proto:   6,
			Flags:   0x02, // SYN
			Bytes:   60,
		}
		g.open = append(g.open, p)
		return p
	}
	i := g.r.Intn(len(g.open))
	p := g.open[i]
	if g.r.Float64() < g.CloseProb {
		p.Flags = 0x01 // FIN
		g.open = append(g.open[:i], g.open[i+1:]...)
	} else {
		p.Flags = 0x10 // ACK data
		p.Bytes = g.r.Intn(1400) + 60
	}
	return p
}
