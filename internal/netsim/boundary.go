// Shard-aware topology support for the conservative PDES cluster
// (sim.Cluster): partitioning a rack of boxes across shards, and the
// boundary links whose physical latency is the cluster's lookahead.
//
// Conservative synchronization is only as good as its lookahead, and
// the fabric gives one for free: no frame can cross between two
// partitions faster than one propagation delay plus the serialization
// of a minimum-size frame. Scenario code that partitions a topology
// routes all partition-crossing traffic through BoundaryLinks and
// hands Config.Lookahead() to sim.NewCluster.
package netsim

import (
	"hyperion/internal/sim"
)

// serTime returns the serialization time of b bytes on one link.
func serTime(b int) sim.Duration {
	return sim.Duration(float64(b) / float64(linkBytesPerSec) * float64(sim.Second))
}

// Lookahead returns the minimum delay of any partition-crossing
// message on this fabric: one propagation delay plus the serialization
// time of a minimum-size frame. It is the tightest bound a
// sim.Cluster built over this topology may use.
func (c Config) Lookahead() sim.Duration {
	return c.PropDelay + serTime(MinFrameBytes)
}

// Partition maps n topology nodes onto nshards contiguous blocks as
// evenly as possible (the first n%nshards shards get one extra node).
// Contiguity keeps replication neighbours (b, b+1, b+2) mostly
// co-sharded, which minimizes boundary traffic without changing
// results — a sim.Cluster's output is layout-independent.
func Partition(n, nshards int) []int {
	if nshards <= 0 {
		panic("netsim: Partition with no shards")
	}
	out := make([]int, n)
	base, extra := n/nshards, n%nshards
	node := 0
	for s := 0; s < nshards && node < n; s++ {
		size := base
		if s < extra {
			size++
		}
		for i := 0; i < size; i++ {
			out[node] = s
			node++
		}
	}
	return out
}

// BoundaryLink models one direction of a partition-crossing uplink:
// sends serialize behind the link's busy horizon, then propagate.
// Each sending endpoint owns its own BoundaryLink (it is shard-local
// state), so contention on the sender's uplink is modeled while the
// receiving side stays a pure timestamped envelope.
type BoundaryLink struct {
	cfg  Config
	busy sim.Time
}

// NewBoundaryLink returns an idle link with the given fabric shape.
func NewBoundaryLink(cfg Config) *BoundaryLink {
	return &BoundaryLink{cfg: cfg}
}

// Delay returns the delivery delay for a b-byte message sent at now
// and advances the link's serialization horizon. The result is always
// at least cfg.Lookahead(), which is what makes boundary links safe
// carriers for cross-shard envelopes.
func (l *BoundaryLink) Delay(now sim.Time, b int) sim.Duration {
	if b < MinFrameBytes {
		b = MinFrameBytes
	}
	start := l.busy
	if start < now {
		start = now
	}
	l.busy = start.Add(serTime(b))
	return l.busy.Add(l.cfg.PropDelay).Sub(now)
}
