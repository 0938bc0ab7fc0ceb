// Package cluster turns N resolver instances into one logical resolver
// for the workloads the paper's mainstream operators serve: the answer
// cache is partitioned across peers by a consistent-hash ring over the
// shared cache-key bytes (internal/keyhash), and a query for a key
// another peer owns is forwarded one hop to it over the ordinary transport
// Exchanger layer (retries, pools and spans come for free), so each key
// is cached once, at its owner. A membership layer with
// hysteresis health (internal/monitor) rebuilds the ring when a peer
// dies, and internal/netsim's catchment model steers simulated client
// populations to the nearest healthy instance — the paper's
// anycast-multisite-vs-single-site contrast reproduced as an operator.
package cluster

import (
	"fmt"
	"math"
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
// hash; the next distinct peers clockwise take the key's load when the
// owner is saturated (OwnerBounded). Rebuilds
// (peer death, recovery) swap in a whole new Ring, so readers never lock.
type Ring struct {
	points []point
	peers  []string
}

// NewRing builds a ring with vnodes virtual nodes per peer (DefaultVNodes
// when <= 0). Duplicate peer IDs are collapsed; peer order does not
// affect the ring layout (virtual-node positions depend only on the peer
// ID string), so every cluster member that agrees on the healthy peer
// set agrees on ownership.
func NewRing(peers []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
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
		points: make([]point, 0, len(uniq)*vnodes),
	}
	for pi, p := range uniq {
		for v := 0; v < vnodes; v++ {
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

// start returns the index of the first virtual node at or after the
// mixed hash, wrapping at the end of the circle.
func (r *Ring) start(hash uint64) int {
	hash = mix64(hash)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hash })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Owner returns the peer owning hash; ok is false on an empty ring.
func (r *Ring) Owner(hash uint64) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	return r.peers[r.points[r.start(hash)].peer], true
}

// Successors returns up to n distinct peers in clockwise order starting
// at hash's owner: the primary first, then the peers a bounded-load
// spill tries in turn. With n >= Len it is the full peer set in ring
// order.
func (r *Ring) Successors(hash uint64, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.peers) {
		n = len(r.peers)
	}
	out := make([]string, 0, n)
	taken := make(map[int32]bool, n)
	for i, seen := r.start(hash), 0; seen < len(r.points); i, seen = (i+1)%len(r.points), seen+1 {
		p := r.points[i].peer
		if taken[p] {
			continue
		}
		taken[p] = true
		out = append(out, r.peers[p])
		if len(out) == n {
			break
		}
	}
	return out
}

// OwnerBounded implements bounded-load ownership (the
// consistent-hashing-with-bounded-loads construction): it walks the
// ring clockwise from hash and returns the first peer whose current
// load is under ceil(factor × (total+1) / N), so one scorching-hot key
// range spills onto the next peers instead of melting its owner. load
// reports a peer's instantaneous load (in-flight forwards); factor <= 1
// disables the bound. When every peer is saturated the plain owner is
// returned — at that point the whole cluster is overloaded and spilling
// would only shuffle the pain.
func (r *Ring) OwnerBounded(hash uint64, load func(peer string) int, factor float64) (string, bool) {
	owner, ok := r.Owner(hash)
	if !ok || factor <= 1 || load == nil || len(r.peers) < 2 {
		return owner, ok
	}
	total := 1 // the query being placed
	for _, p := range r.peers {
		total += load(p)
	}
	bound := int(math.Ceil(factor * float64(total) / float64(len(r.peers))))
	for _, p := range r.Successors(hash, len(r.peers)) {
		if load(p) < bound {
			return p, true
		}
	}
	return owner, true
}

// Shares returns each peer's owned fraction of the hash space — the
// expected share of uniformly hashed keys it is primary for. Used by
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
