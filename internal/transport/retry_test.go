package transport

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"encdns/internal/dnswire"
)

// goldenBackoff is the exact decorrelated-jitter sequence between attempts
// (base 50ms, max 1s, seed 1). The acceptance criterion
// is byte-stable backoff under the default seed: a change to the RNG,
// the stream constant, or the jitter formula fails this test.
var goldenBackoff = []time.Duration{
	52439131, 65651876, 74542479, 116901818, 123261910, 339728329,
}

func TestBackoffGoldenSequence(t *testing.T) {
	b := NewBackoff(backoffBase, backoffMax, backoffSeed)
	for i, want := range goldenBackoff {
		if got := b.Next(); got != want {
			t.Errorf("seed 1 delay[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestBackoffDeterminism(t *testing.T) {
	a := NewBackoff(50*time.Millisecond, time.Second, 7)
	b := NewBackoff(50*time.Millisecond, time.Second, 7)
	for i := 0; i < 32; i++ {
		if da, db := a.Next(), b.Next(); da != db {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, da, db)
		}
	}
	c := NewBackoff(50*time.Millisecond, time.Second, 7)
	d := NewBackoff(50*time.Millisecond, time.Second, 8)
	same := true
	for i := 0; i < 8; i++ {
		if c.Next() != d.Next() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced the same sequence")
	}
}

func TestBackoffBounds(t *testing.T) {
	base, max := 10*time.Millisecond, 80*time.Millisecond
	b := NewBackoff(base, max, 3)
	for i := 0; i < 100; i++ {
		d := b.Next()
		if d < base || d > max {
			t.Fatalf("delay[%d] = %v outside [%v, %v]", i, d, base, max)
		}
	}
}

// scriptedDialer fails its first failures dials with err (a generic error
// when nil), then dials for real; it counts every dial, so each call is one
// attempt.
type scriptedDialer struct {
	failures int
	calls    int
	err      error
}

func (d *scriptedDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	d.calls++
	if d.calls <= d.failures {
		if d.err != nil {
			return nil, d.err
		}
		return nil, errors.New("scripted failure")
	}
	return (&net.Dialer{}).DialContext(ctx, network, addr)
}

// dialScripted dials a loopback udp server through d under policy p.
func dialScripted(t *testing.T, d *scriptedDialer, p RetryPolicy) Exchanger {
	t.Helper()
	ex, err := Dial("udp://"+startUDP(t, staticHandler()), Options{Dialer: d, Retry: &p})
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func query() *dnswire.Message { return dnswire.NewQuery(1, "example.com", dnswire.TypeA) }

func TestRetryRecoversWithExactBackoff(t *testing.T) {
	d := &scriptedDialer{failures: 2}
	var slept []time.Duration
	ex := dialScripted(t, d, RetryPolicy{
		MaxAttempts: 3,
		Sleep:       func(ctx context.Context, d time.Duration) error { slept = append(slept, d); return nil },
	})
	resp, err := ex.Exchange(context.Background(), query())
	if err != nil || resp == nil {
		t.Fatalf("exchange: %v", err)
	}
	if d.calls != 3 {
		t.Errorf("calls = %d, want 3", d.calls)
	}
	// The sleeps between attempts are exactly the golden prefix: each
	// Exchange call restarts the deterministic sequence.
	if len(slept) != 2 || slept[0] != goldenBackoff[0] || slept[1] != goldenBackoff[1] {
		t.Errorf("slept %v, want %v", slept, goldenBackoff[:2])
	}
}

func TestRetryExhaustionWrapsLastError(t *testing.T) {
	sentinel := errors.New("refused")
	d := &scriptedDialer{failures: 99, err: sentinel}
	ex := dialScripted(t, d, RetryPolicy{
		MaxAttempts: 4,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	})
	_, err := ex.Exchange(context.Background(), query())
	if !errors.Is(err, sentinel) {
		t.Errorf("error %v does not wrap the final attempt error", err)
	}
	if d.calls != 4 {
		t.Errorf("calls = %d, want 4", d.calls)
	}
}

func TestRetryStopsOnContextCancel(t *testing.T) {
	d := &scriptedDialer{failures: 99}
	ctx, cancel := context.WithCancel(context.Background())
	ex := dialScripted(t, d, RetryPolicy{
		MaxAttempts: 5,
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel()
			return ctx.Err()
		},
	})
	_, err := ex.Exchange(ctx, query())
	if err == nil {
		t.Fatal("cancelled exchange succeeded")
	}
	if d.calls != 1 {
		t.Errorf("calls = %d after cancel during first backoff, want 1", d.calls)
	}
}

// TestSingleAttemptReturnsItsError: under NoRetry an exchange is one
// attempt, whose error comes back as it is, and no retry is counted.
func TestSingleAttemptReturnsItsError(t *testing.T) {
	sentinel := errors.New("refused")
	d := &scriptedDialer{failures: 99, err: sentinel}
	ex := dialScripted(t, d, NoRetry())
	attempts, exhausted := retryAttempts.Value(), retryExhausted.Value()
	_, err := ex.Exchange(context.Background(), query())
	if !errors.Is(err, sentinel) || strings.Contains(err.Error(), "attempt(s) failed") {
		t.Errorf("err = %v, want the attempt's own error", err)
	}
	if d.calls != 1 {
		t.Errorf("calls = %d, want 1", d.calls)
	}
	if retryAttempts.Value() != attempts || retryExhausted.Value() != exhausted {
		t.Error("a single attempt moved the retry counters")
	}
}
