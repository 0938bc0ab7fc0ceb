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
	a := NewRing([]string{"p0", "p1", "p2"})
	b := NewRing([]string{"p2", "p0", "p1", "p0"}) // shuffled + duplicate
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
	empty := NewRing(nil)
	if _, ok := empty.Owner(42); ok {
		t.Error("empty ring should own nothing")
	}
	one := NewRing([]string{"solo"})
	for _, h := range sampleHashes(50) {
		if o, ok := one.Owner(h); !ok || o != "solo" {
			t.Fatalf("single-peer ring owner = %q, %v", o, ok)
		}
	}
}

func TestRingBalance(t *testing.T) {
	peers := []string{"udp://10.0.0.1:53", "udp://10.0.0.2:53", "udp://10.0.0.3:53"}
	r := NewRing(peers)

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
	full := NewRing([]string{"p0", "p1", "p2", "p3"})
	reduced := NewRing([]string{"p0", "p1", "p3"})
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
