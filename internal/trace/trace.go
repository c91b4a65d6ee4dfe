// Package trace generates the synthetic workloads the experiments run:
// YCSB-style key-value mixes over Zipfian keys, network attack traces
// for the fail2ban middleware, and connection traces for the L4 load
// balancer. The paper's substrate used production traffic; these
// generators exercise the same code paths with controlled, seeded
// distributions (documented substitution in DESIGN.md).
package trace

import (
	"encoding/binary"
	"fmt"

	"hyperion/internal/sim"
)

// KVOp is one key-value operation.
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
	r        *sim.Rand
	zipf     *sim.Zipf
	mix      YCSBMix
	keys     uint64
	valBytes int
}

// NewKVGen creates a generator over n keys with the given mix and value
// size; theta=0.99 Zipfian like the YCSB default.
func NewKVGen(seed uint64, n uint64, mix YCSBMix, valBytes int) *KVGen {
	r := sim.NewRand(seed)
	return &KVGen{r: r, zipf: sim.NewZipf(r, n, 0.99), mix: mix, keys: n, valBytes: valBytes}
}

// Key materializes key i in a fixed format: "user" and i in decimal,
// zero-padded to twelve digits (wider when i needs more).
func Key(i uint64) []byte {
	if i >= 1e12 {
		return []byte(fmt.Sprintf("user%012d", i))
	}
	k := []byte("user000000000000")
	for p := len(k) - 1; i > 0; p-- {
		k[p] = byte('0' + i%10)
		i /= 10
	}
	return k
}

// LoadKeys returns every key once (for the load phase).
func (g *KVGen) LoadKeys() []uint64 {
	out := make([]uint64, g.keys)
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}

// Value generates a deterministic value for a key.
func (g *KVGen) Value(key uint64) []byte {
	v := make([]byte, g.valBytes)
	binary.LittleEndian.PutUint64(v, key)
	for i := 8; i < len(v); i++ {
		v[i] = byte(key + uint64(i))
	}
	return v
}

// Next returns the next operation.
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
	if g.r.Intn(100) < readPct {
		return KVOp{Kind: 'r', Key: Key(k)}
	}
	return KVOp{Kind: 'u', Key: Key(k), Value: g.Value(k)}
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

// Marshal encodes a packet header into a 20-byte context buffer (the
// eBPF programs parse this layout).
func (p Packet) Marshal() []byte {
	b := make([]byte, 20)
	binary.LittleEndian.PutUint32(b[0:], p.SrcIP)
	binary.LittleEndian.PutUint32(b[4:], p.DstIP)
	binary.LittleEndian.PutUint16(b[8:], p.SrcPort)
	binary.LittleEndian.PutUint16(b[10:], p.DstPort)
	b[12] = p.Proto
	b[13] = p.Flags
	binary.LittleEndian.PutUint32(b[14:], uint32(p.Bytes))
	if p.AuthFail {
		b[18] = 1
	}
	return b
}

// UnmarshalPacket decodes a 20-byte context buffer.
func UnmarshalPacket(b []byte) Packet {
	var p Packet
	p.SrcIP = binary.LittleEndian.Uint32(b[0:])
	p.DstIP = binary.LittleEndian.Uint32(b[4:])
	p.SrcPort = binary.LittleEndian.Uint16(b[8:])
	p.DstPort = binary.LittleEndian.Uint16(b[10:])
	p.Proto = b[12]
	p.Flags = b[13]
	p.Bytes = int(binary.LittleEndian.Uint32(b[14:]))
	p.AuthFail = b[18] == 1
	return p
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

// Attackers returns the attacker source list.
func (g *AttackGen) Attackers() []uint32 { return g.attackers }

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

// Open returns the number of currently open connections.
func (g *ConnGen) Open() int { return len(g.open) }

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
