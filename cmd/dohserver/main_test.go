package main

import (
	"slices"
	"strings"
	"testing"
)

// TestClusterIDs: the node's own ID and its peers' are canonical udp://
// endpoints however -do53 and -peers spell them, so every member hashes
// the same ring; a peer that does not forward over Do53 is rejected by
// name.
func TestClusterIDs(t *testing.T) {
	self, remotes, err := clusterIDs("127.0.0.1:5301", " 127.0.0.1:5302, udp://127.0.0.1 ,,udp://[::1]:5303")
	if err != nil {
		t.Fatal(err)
	}
	if self != "udp://127.0.0.1:5301" {
		t.Errorf("self = %q, want udp://127.0.0.1:5301", self)
	}
	if want := []string{"udp://127.0.0.1:5302", "udp://127.0.0.1:53", "udp://[::1]:5303"}; !slices.Equal(remotes, want) {
		t.Errorf("remotes = %q, want %q", remotes, want)
	}

	for _, tc := range []struct{ do53, peers, named string }{
		{"127.0.0.1:5301", "udp://127.0.0.1:5302,tls://127.0.0.1:853", "tls://127.0.0.1:853"},
		{"127.0.0.1:5301", "https://127.0.0.1/dns-query", "https://127.0.0.1/dns-query"},
		{"127.0.0.1:5301", "split:3|tcp://127.0.0.1:5302", "split:3|tcp://127.0.0.1:5302"},
		{"127.0.0.1:5301", "gopher://127.0.0.1", "gopher://127.0.0.1"},
		{":5301", "udp://127.0.0.1:5302", ":5301"},
	} {
		if _, _, err := clusterIDs(tc.do53, tc.peers); err == nil || !strings.Contains(err.Error(), `"`+tc.named+`"`) {
			t.Errorf("clusterIDs(%q, %q): err = %v, want one naming %q", tc.do53, tc.peers, err, tc.named)
		}
	}
}
