// Package cluster turns N resolver instances into one logical resolver
// for the workloads the paper's mainstream operators serve: the answer
// cache is partitioned across peers by a consistent-hash ring over the
// shared cache-key bytes (internal/keyhash), and a query for a key
// another peer owns is forwarded one hop to it, always, over the ordinary
// transport Exchanger layer (one attempt: a failed hop falls back to the
// local resolver), so each key is cached once, at its owner, however
// many queries are in flight. Each node keeps its peers' health itself,
// from its own forwards and probes, and rebuilds the ring when a peer
// dies or comes back.
package cluster

import (
	"fmt"
	"sort"
	"strconv"

	"encdns/internal/keyhash"
)

// DefaultVNodes is the virtual-node count per peer. 256 points per peer
// keeps every ownership share within about one percent of 1/N for the
// small clusters this tier targets while the ring stays tiny (N×256
// 16-byte points, ~10-step binary search per lookup).
const DefaultVNodes = 256

// point is one virtual node on the ring: a position in the 64-bit hash
// space owned by a peer.
type point struct {
	hash uint64
	peer int32 // index into Ring.peers
}

// mix64 is the murmur3 64-bit finaliser. The ring applies it to every
// hash placed on or looked up against the circle: raw FNV-1a over
// near-identical inputs (peer IDs differing in one port digit, vnode
// labels "#0".."#63") leaves correlated high bits, which skews vnode
// positions badly enough that one of three peers owned half the ring.
// The finaliser's avalanche restores uniformity; applying it to lookups
// too keeps key placement consistent with any key-hash distribution.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Ring is an immutable consistent-hash ring over a peer set. Ownership
// of a key is the first virtual node at or clockwise from the key's
// hash. Rebuilds (peer death, recovery) swap in a whole new Ring, so
// readers never lock.
type Ring struct {
	points []point
	peers  []string
}

// NewRing builds a ring with DefaultVNodes virtual nodes per peer.
// Duplicate peer IDs are collapsed; peer order does not
// affect the ring layout (virtual-node positions depend only on the peer
// ID string), so every cluster member that agrees on the healthy peer
// set agrees on ownership.
func NewRing(peers []string) *Ring {
	seen := make(map[string]bool, len(peers))
	uniq := make([]string, 0, len(peers))
	for _, p := range peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		uniq = append(uniq, p)
	}
	sort.Strings(uniq)
	r := &Ring{
		peers:  uniq,
		points: make([]point, 0, len(uniq)*DefaultVNodes),
	}
	for pi, p := range uniq {
		for v := 0; v < DefaultVNodes; v++ {
			r.points = append(r.points, point{
				hash: mix64(keyhash.String(p + "#" + strconv.Itoa(v))),
				peer: int32(pi),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (astronomically rare) break on peer index so every
		// member sorts identically.
		return r.points[i].peer < r.points[j].peer
	})
	return r
}

// Peers returns the ring's peer IDs in sorted order. The slice is shared;
// callers must not mutate it.
func (r *Ring) Peers() []string { return r.peers }

// Len returns the number of peers on the ring.
func (r *Ring) Len() int { return len(r.peers) }

// Owner returns the peer owning hash, the first virtual node at or after
// the mixed hash, wrapping at the end of the circle; ok is false on an
// empty ring.
func (r *Ring) Owner(hash uint64) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	hash = mix64(hash)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hash })
	if i == len(r.points) {
		i = 0
	}
	return r.peers[r.points[i].peer], true
}

// Shares returns each peer's owned fraction of the hash space — the
// expected share of uniformly hashed keys it owns. Used by
// introspection (dnsdig -ring) and the balance tests.
func (r *Ring) Shares() map[string]float64 {
	shares := make(map[string]float64, len(r.peers))
	if len(r.points) == 0 {
		return shares
	}
	const span = float64(1<<63) * 2 // 2^64 as a float
	for i, pt := range r.points {
		// The arc (previous point, this point] belongs to this point's peer.
		var arc uint64
		if i == 0 {
			arc = pt.hash - r.points[len(r.points)-1].hash // wraps mod 2^64
		} else {
			arc = pt.hash - r.points[i-1].hash
		}
		shares[r.peers[pt.peer]] += float64(arc) / span
	}
	return shares
}

// String summarises the ring for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("ring{peers=%d vnodes=%d}", len(r.peers), len(r.points))
}
