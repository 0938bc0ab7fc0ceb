package cluster

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"encdns/internal/monitor"
	"encdns/internal/obs"
)

// Membership tracks which peers are eligible to own ring segments. The
// peer list is static (the paper's deployment model: a fixed fleet of
// instances behind stable addresses); health is dynamic, driven through
// the same hysteresis state machine the watchtower uses for upstream
// resolvers (internal/monitor), so one dropped forward never reshuffles
// the ring — only a StateDown transition does. Every eligibility change
// swaps in a freshly built immutable Ring; readers never lock.
type Membership struct {
	self    string
	remotes []string
	tracker *monitor.Tracker

	mu       sync.Mutex
	eligible map[string]bool
	ring     atomic.Pointer[Ring]
	rebuilds *obs.Counter
}

// NewMembership builds the membership view for one instance. self is
// this instance's cluster ID (by convention its transport endpoint as
// the other peers dial it — every member must spell every ID the same
// way or the rings disagree); peers are the remote members. health
// configures the hysteresis tracker; set health.Now to a virtual clock
// to drive the whole layer deterministically in tests. All peers start
// eligible: a cluster must assume its members are up until observed
// otherwise, or a cold start would forward nothing. Rings have
// DefaultVNodes points per peer.
func NewMembership(self string, peers []string, health monitor.Config) *Membership {
	m := &Membership{
		self:     self,
		tracker:  monitor.New(health),
		eligible: make(map[string]bool, len(peers)+1),
		rebuilds: obs.Default().Counter("cluster_ring_rebuilds_total",
			"Consistent-hash ring rebuilds caused by peer eligibility changes."),
	}
	seen := map[string]bool{self: true}
	for _, p := range peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		m.remotes = append(m.remotes, p)
		m.eligible[p] = true
	}
	sort.Strings(m.remotes)
	m.eligible[self] = true
	m.ring.Store(m.buildLocked())
	return m
}

// Self returns this instance's cluster ID.
func (m *Membership) Self() string { return m.self }

// Remotes returns the remote peer IDs in sorted order. The slice is
// shared; callers must not mutate it.
func (m *Membership) Remotes() []string { return m.remotes }

// Ring returns the current ring. The ring is immutable; hold the
// pointer for the duration of one routing decision so owner and
// replica lookups agree.
func (m *Membership) Ring() *Ring { return m.ring.Load() }

// buildLocked constructs a ring over the currently eligible peers.
// Callers hold m.mu (or are the constructor, pre-publication).
func (m *Membership) buildLocked() *Ring {
	eligible := make([]string, 0, len(m.remotes)+1)
	eligible = append(eligible, m.self) // self is always eligible
	for _, p := range m.remotes {
		if m.eligible[p] {
			eligible = append(eligible, p)
		}
	}
	return NewRing(eligible, DefaultVNodes)
}

// Observe feeds one interaction outcome with a remote peer — a
// forwarded query, a replication push, or an explicit probe — into the
// health tracker, and rebuilds the ring when the peer's eligibility
// flips. Down peers leave the ring (their key ranges fall to their ring
// successors); recovery re-admits them after the tracker's
// consecutive-success threshold.
func (m *Membership) Observe(peer string, ok bool, rtt time.Duration, errClass string) {
	if peer == m.self {
		return
	}
	m.tracker.ObserveProbe(peer, ok, rtt, errClass)
	st, tracked := m.tracker.State(peer)
	if !tracked {
		return
	}
	elig := st != monitor.StateDown
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur, known := m.eligible[peer]; !known || cur == elig {
		return
	}
	m.eligible[peer] = elig
	m.ring.Store(m.buildLocked())
	m.rebuilds.Inc()
}
