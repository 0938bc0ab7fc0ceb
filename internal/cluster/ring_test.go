package cluster

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"encdns/internal/keyhash"
)

func sampleHashes(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = keyhash.Name(fmt.Sprintf("host-%d.example.com.", i))
	}
	return out
}

func TestRingOwnershipIndependentOfPeerOrder(t *testing.T) {
	a := NewRing([]string{"p0", "p1", "p2"}, 0)
	b := NewRing([]string{"p2", "p0", "p1", "p0"}, 0) // shuffled + duplicate
	for _, h := range sampleHashes(500) {
		oa, _ := a.Owner(h)
		ob, _ := b.Owner(h)
		if oa != ob {
			t.Fatalf("owner(%#x) differs across construction orders: %q vs %q", h, oa, ob)
		}
	}
	if a.Len() != 3 || b.Len() != 3 {
		t.Fatalf("Len = %d, %d; want 3 (duplicates collapsed)", a.Len(), b.Len())
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	empty := NewRing(nil, 0)
	if _, ok := empty.Owner(42); ok {
		t.Error("empty ring should own nothing")
	}
	if s := empty.Successors(42, 2); s != nil {
		t.Errorf("empty ring successors = %v, want nil", s)
	}
	one := NewRing([]string{"solo"}, 0)
	for _, h := range sampleHashes(50) {
		if o, ok := one.Owner(h); !ok || o != "solo" {
			t.Fatalf("single-peer ring owner = %q, %v", o, ok)
		}
	}
}

func TestRingBalance(t *testing.T) {
	peers := []string{"udp://10.0.0.1:53", "udp://10.0.0.2:53", "udp://10.0.0.3:53"}
	r := NewRing(peers, 0)

	// Analytical shares sum to 1 and stay near 1/N with 64 vnodes.
	shares := r.Shares()
	var sum float64
	for p, s := range shares {
		sum += s
		if s < 0.28 || s > 0.39 {
			t.Errorf("share(%s) = %.3f, badly unbalanced for %d vnodes", p, s, DefaultVNodes)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %.12f, want 1", sum)
	}

	// Empirical ownership over real-looking keys roughly matches.
	counts := map[string]int{}
	hashes := sampleHashes(6000)
	for _, h := range hashes {
		o, _ := r.Owner(h)
		counts[o]++
	}
	for p, c := range counts {
		got := float64(c) / float64(len(hashes))
		if math.Abs(got-shares[p]) > 0.05 {
			t.Errorf("empirical share(%s) = %.3f vs analytical %.3f", p, got, shares[p])
		}
	}
}

// TestRingMinimalDisruption is the consistent-hashing property itself:
// removing one peer may only move keys that peer owned.
func TestRingMinimalDisruption(t *testing.T) {
	full := NewRing([]string{"p0", "p1", "p2", "p3"}, 0)
	reduced := NewRing([]string{"p0", "p1", "p3"}, 0)
	moved, owned := 0, 0
	for _, h := range sampleHashes(4000) {
		before, _ := full.Owner(h)
		after, _ := reduced.Owner(h)
		if before == "p2" {
			owned++
			if after == "p2" {
				t.Fatalf("removed peer still owns %#x", h)
			}
			continue
		}
		if before != after {
			moved++
			t.Errorf("key %#x moved %q -> %q though its owner survived", h, before, after)
			if moved > 5 {
				t.FailNow()
			}
		}
	}
	if owned == 0 {
		t.Fatal("sample never hit the removed peer; test is vacuous")
	}
}

func TestRingSuccessorsDistinctAndOrdered(t *testing.T) {
	r := NewRing([]string{"p0", "p1", "p2", "p3"}, 0)
	for _, h := range sampleHashes(200) {
		owner, _ := r.Owner(h)
		succ := r.Successors(h, 3)
		if len(succ) != 3 {
			t.Fatalf("Successors(n=3) returned %d peers", len(succ))
		}
		if succ[0] != owner {
			t.Fatalf("Successors[0] = %q, want owner %q", succ[0], owner)
		}
		seen := map[string]bool{}
		for _, p := range succ {
			if seen[p] {
				t.Fatalf("duplicate successor %q for %#x", p, h)
			}
			seen[p] = true
		}
	}
	if got := r.Successors(sampleHashes(1)[0], 10); len(got) != 4 {
		t.Errorf("n beyond peer count should clamp: got %d peers", len(got))
	}
}

func TestOwnerBoundedSpillsHotRange(t *testing.T) {
	r := NewRing([]string{"p0", "p1", "p2"}, 0)
	h := sampleHashes(1)[0]
	owner, _ := r.Owner(h)
	next := r.Successors(h, 2)[1]

	// Owner saturated, everyone else idle: the walk spills to the next
	// distinct peer. total=1+12, bound=ceil(1.25*13/3)=6.
	loads := map[string]int{owner: 12}
	got, ok := r.OwnerBounded(h, func(p string) int { return loads[p] }, 1.25)
	if !ok || got != next {
		t.Errorf("OwnerBounded under hot owner = %q, want spill to %q", got, next)
	}

	// factor <= 1 disables bounding.
	if got, _ := r.OwnerBounded(h, func(p string) int { return loads[p] }, 1); got != owner {
		t.Errorf("factor 1 should return plain owner, got %q", got)
	}

	// Uniform load stays on the plain owner.
	if got, _ := r.OwnerBounded(h, func(string) int { return 4 }, 1.25); got != owner {
		t.Errorf("uniform load should keep plain owner, got %q", got)
	}

	// Everyone saturated: plain owner again (spilling just shuffles pain).
	if got, _ := r.OwnerBounded(h, func(string) int { return 1000 }, 1.25); got != owner {
		t.Errorf("saturated cluster should fall back to plain owner, got %q", got)
	}
}

// TestClusterIDs: a node's own ID and its peers' are canonical udp://
// endpoints however -do53 and -peers spell them, so every member hashes
// the same ring; a peer that does not forward over Do53 is rejected by
// name.
func TestClusterIDs(t *testing.T) {
	self, err := PeerID("127.0.0.1:5301")
	if err != nil {
		t.Fatal(err)
	}
	if self != "udp://127.0.0.1:5301" {
		t.Errorf("self = %q, want udp://127.0.0.1:5301", self)
	}
	remotes, err := PeerIDs(" 127.0.0.1:5302, udp://127.0.0.1 ,,udp://[::1]:5303")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"udp://127.0.0.1:5302", "udp://127.0.0.1:53", "udp://[::1]:5303"}; !slices.Equal(remotes, want) {
		t.Errorf("remotes = %q, want %q", remotes, want)
	}

	for _, tc := range []struct{ peers, named string }{
		{"udp://127.0.0.1:5302,tls://127.0.0.1:853", "tls://127.0.0.1:853"},
		{"https://127.0.0.1/dns-query", "https://127.0.0.1/dns-query"},
		{"split:3|tcp://127.0.0.1:5302", "split:3|tcp://127.0.0.1:5302"},
		{"gopher://127.0.0.1", "gopher://127.0.0.1"},
		{":5301", ":5301"},
	} {
		if _, err := PeerIDs(tc.peers); err == nil || !strings.Contains(err.Error(), `"`+tc.named+`"`) {
			t.Errorf("PeerIDs(%q): err = %v, want one naming %q", tc.peers, err, tc.named)
		}
	}
}
