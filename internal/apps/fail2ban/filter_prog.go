//go:build ignore

// Packet-filter program in restricted Go, compiled by
// internal/ebpf/gofront at deploy time. It is the frontend twin of
// the hand-written Program oracle in frontend_test.go — the
// differential tests hold the two to the same instruction shape, so
// edits here must stay in lockstep with the assembly.
//
// The threshold constant is overridden per deployment through
// gofront.Options.Consts, the compiler's -D equivalent.
package prog

//hyperion:map bans id=0 key=4 value=8 entries=65536
//hyperion:map fails id=1 key=4 value=8 entries=65536

// Packet mirrors trace.Packet.Marshal's 20-byte wire layout.
type Packet struct {
	SrcIP    uint32
	DstIP    uint32
	SrcPort  uint16
	DstPort  uint16
	Proto    uint8
	Flags    uint8
	Bytes    uint32
	AuthFail uint8
	_        uint8
}

// Map ids (the //hyperion:map declarations above) and verdicts
// (must match fail2ban.Verdict*).
const (
	bansMap  = 0
	failsMap = 1

	threshold = 5 // overridden at deploy time

	VerdictPass   = 0
	VerdictDrop   = 1
	VerdictBanned = 2
)

// mapLookup returns a pointer to the value stored under *k, or nil.
//
//hyperion:helper 1
func mapLookup(m uint32, k *uint32) *uint64

// mapUpdate inserts or overwrites the value stored under *k.
//
//hyperion:helper 2
func mapUpdate(m uint32, k *uint32, v *uint64) int64

// Filter drops packets from banned sources, counts authentication
// failures per source, and bans sources that reach the threshold.
func Filter(ctx *Packet) uint64 {
	var key uint32
	var one uint64
	src := ctx.SrcIP
	fail := ctx.AuthFail
	key = src
	p := mapLookup(bansMap, &key)
	if p != nil {
		return VerdictDrop
	}
	if fail == 0 {
		goto pass
	}
	q := mapLookup(failsMap, &key)
	if q == nil {
		goto first
	}
	n := *q
	n += 1
	*q = n
	if n >= threshold {
		goto ban
	}
	goto pass
first:
	one = 1
	mapUpdate(failsMap, &key, &one)
	goto pass
ban:
	one = 1
	mapUpdate(bansMap, &key, &one)
	return VerdictBanned
pass:
	return VerdictPass
}
