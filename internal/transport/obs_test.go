package transport

import (
	"context"
	"strings"
	"testing"
	"time"

	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/obs"
	"encdns/internal/testutil"
)

func noSleep(ctx context.Context, d time.Duration) error { return nil }

// TestTraceThroughRetry drives a traced query through the retry loop and
// checks that every attempt shows up as its own span with the retry
// annotations attached.
func TestTraceThroughRetry(t *testing.T) {
	d := &scriptedDialer{failures: 2}
	ex := dialScripted(t, d, RetryPolicy{MaxAttempts: 3, Sleep: noSleep})

	attemptsBefore := retryAttempts.Value()
	ctx, tr := obs.StartTrace(context.Background(), "query example.com A")
	q := dnswire.NewQuery(dns53.NewID(), "example.com", dnswire.TypeA)
	resp, err := ex.Exchange(ctx, q)
	tr.Finish()
	if err != nil {
		t.Fatalf("exchange failed after retries: %v", err)
	}
	if !resp.Header.QR {
		t.Error("response is not a reply")
	}
	if d.calls != 3 {
		t.Fatalf("dialled %d times, want 3", d.calls)
	}
	if got := retryAttempts.Value() - attemptsBefore; got != 2 {
		t.Errorf("retryAttempts advanced by %d, want 2", got)
	}

	out := tr.String()
	if n := strings.Count(out, "attempt (scheme=udp)"); n != 3 {
		t.Errorf("rendered %d attempt spans, want 3:\n%s", n, out)
	}
	if n := strings.Count(out, ": scripted failure"); n != 2 {
		t.Errorf("rendered %d error annotations, want 2:\n%s", n, out)
	}
	for _, want := range []string{"retry: attempt 2 after", "retry: attempt 3 after"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestInstrumentCounters pins the per-scheme counters and histogram every
// attempt feeds.
func TestInstrumentCounters(t *testing.T) {
	m := schemeInstruments[SchemeUDP]
	exBefore := m.exchanges.Value()
	errBefore := m.errors.Value()
	histBefore := testutil.HistogramCount(t, `transport_exchange_seconds{scheme="udp"}`)

	ex := dialScripted(t, &scriptedDialer{failures: 1}, NoRetry())
	q := dnswire.NewQuery(dns53.NewID(), "example.com", dnswire.TypeA)
	if _, err := ex.Exchange(context.Background(), q); err == nil {
		t.Fatal("first scripted exchange should fail")
	}
	if _, err := ex.Exchange(context.Background(), q); err != nil {
		t.Fatalf("second exchange: %v", err)
	}

	if got := m.exchanges.Value() - exBefore; got != 2 {
		t.Errorf("exchanges advanced by %d, want 2", got)
	}
	if got := m.errors.Value() - errBefore; got != 1 {
		t.Errorf("errors advanced by %d, want 1", got)
	}
	if got := testutil.HistogramCount(t, `transport_exchange_seconds{scheme="udp"}`) - histBefore; got != 2 {
		t.Errorf("latency observations advanced by %d, want 2", got)
	}
}

// TestUntracedSpanOpsAllocFree: with no trace in the context, the spans
// of an attempt cost one context lookup each and no allocations.
func TestUntracedSpanOpsAllocFree(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		_, sp := obs.StartSpan(ctx, "attempt")
		sp.SetAttr("scheme", "udp")
		sp.End()
	}); n != 0 {
		t.Errorf("untraced span ops allocate %v/op, want 0", n)
	}
}
