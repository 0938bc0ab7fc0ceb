package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// off disables every frontend and the CA file, so a run that gets past
// its flags starts an empty stack.
var off = []string{"-do53", "", "-dot", "", "-doh", "", "-ca-out", ""}

// runWith runs the binary with args after off, under a context that has
// already ended: a run that starts shuts down at once.
func runWith(args ...string) error {
	return run(ended(), append(append([]string(nil), off...), args...))
}

func ended() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestPrefetchAcceptsOnlyZero: refresh-ahead is gone, but -prefetch 0
// (which the benchmark harness's udp-miss server passes) still starts;
// any other value is refused.
func TestPrefetchAcceptsOnlyZero(t *testing.T) {
	if err := runWith("-prefetch", "0"); err != nil {
		t.Errorf("-prefetch 0: %v", err)
	}
	if err := runWith("-prefetch", "0.1"); err == nil || !strings.Contains(err.Error(), "-prefetch accepts only 0") {
		t.Errorf("-prefetch 0.1: %v, want refused", err)
	}
}

// TestPeersNeedDo53: a cluster node's ID is its Do53 address, so -peers
// without -do53 is an error, and so is a peer that is not a Do53 endpoint.
func TestPeersNeedDo53(t *testing.T) {
	if err := runWith("-peers", "udp://127.0.0.1:5302"); err == nil || !strings.Contains(err.Error(), "needs -do53") {
		t.Errorf("-peers without -do53: %v", err)
	}
	err := runWith("-do53", "127.0.0.1:0", "-peers", "tls://127.0.0.1:853")
	if err == nil || !strings.HasPrefix(err.Error(), `-peers: peer "tls://127.0.0.1:853"`) {
		t.Errorf("-peers tls://127.0.0.1:853: %v", err)
	}
}

// TestZoneIsGone: the authoritative zone-file mode was deleted, so -zone
// and -zone-origin are unknown flags.
func TestZoneIsGone(t *testing.T) {
	for _, flag := range []string{"-zone", "-zone-origin"} {
		if err := runWith(flag, "x"); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: %v, want an unknown flag", flag, err)
		}
	}
}

// TestHarnessFlags: every flag the benchmark harness passes still parses,
// the stack they describe starts, and the CA lands in -ca-out.
func TestHarnessFlags(t *testing.T) {
	ca := filepath.Join(t.TempDir(), "ca.pem")
	if err := run(ended(), []string{"-do53", "127.0.0.1:0", "-dot", "127.0.0.1:0", "-doh", "127.0.0.1:0",
		"-ca-out", ca, "-cache", "4096", "-prefetch", "0"}); err != nil {
		t.Fatal(err)
	}
	if pem, err := os.ReadFile(ca); err != nil || !strings.HasPrefix(string(pem), "-----BEGIN CERTIFICATE-----") {
		t.Errorf("-ca-out holds %q, %v", pem, err)
	}
}
