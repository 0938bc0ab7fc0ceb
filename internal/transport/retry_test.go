package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"encdns/internal/dnswire"
)

// goldenBackoff is the exact decorrelated-jitter sequence for the
// default policy (base 50ms, max 1s, seed 1). The acceptance criterion
// is byte-stable backoff under the default seed: a change to the RNG,
// the stream constant, or the jitter formula fails this test.
var goldenBackoff = []time.Duration{
	52439131, 65651876, 74542479, 116901818, 123261910, 339728329,
}

func TestBackoffGoldenSequence(t *testing.T) {
	b := NewBackoff(50*time.Millisecond, time.Second, 1)
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

// scriptedExchanger fails a fixed number of times, then succeeds.
type scriptedExchanger struct {
	failures int
	calls    int
	closed   bool
	err      error
}

func (s *scriptedExchanger) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	s.calls++
	if s.calls <= s.failures {
		if s.err != nil {
			return nil, s.err
		}
		return nil, errors.New("scripted failure")
	}
	resp := *q
	resp.Header.QR = true
	return &resp, nil
}

func (s *scriptedExchanger) Close() error { s.closed = true; return nil }

func query() *dnswire.Message { return dnswire.NewQuery(1, "example.com", dnswire.TypeA) }

func TestRetryRecoversWithExactBackoff(t *testing.T) {
	inner := &scriptedExchanger{failures: 2}
	var slept []time.Duration
	ex := WithRetry(inner, RetryPolicy{
		MaxAttempts: 3,
		Sleep:       func(ctx context.Context, d time.Duration) error { slept = append(slept, d); return nil },
	})
	resp, err := ex.Exchange(context.Background(), query())
	if err != nil || resp == nil {
		t.Fatalf("exchange: %v", err)
	}
	if inner.calls != 3 {
		t.Errorf("calls = %d, want 3", inner.calls)
	}
	// The sleeps between attempts are exactly the golden prefix: each
	// Exchange call restarts the deterministic sequence.
	if len(slept) != 2 || slept[0] != goldenBackoff[0] || slept[1] != goldenBackoff[1] {
		t.Errorf("slept %v, want %v", slept, goldenBackoff[:2])
	}
}

func TestRetryExhaustionWrapsLastError(t *testing.T) {
	sentinel := errors.New("refused")
	inner := &scriptedExchanger{failures: 99, err: sentinel}
	ex := WithRetry(inner, RetryPolicy{
		MaxAttempts: 4,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	})
	_, err := ex.Exchange(context.Background(), query())
	if !errors.Is(err, sentinel) {
		t.Errorf("error %v does not wrap the final attempt error", err)
	}
	if inner.calls != 4 {
		t.Errorf("calls = %d, want 4", inner.calls)
	}
}

func TestRetryStopsOnContextCancel(t *testing.T) {
	inner := &scriptedExchanger{failures: 99}
	ctx, cancel := context.WithCancel(context.Background())
	ex := WithRetry(inner, RetryPolicy{
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
	if inner.calls != 1 {
		t.Errorf("calls = %d after cancel during first backoff, want 1", inner.calls)
	}
}

func TestWithRetrySingleAttemptIsIdentity(t *testing.T) {
	inner := &scriptedExchanger{}
	if ex := WithRetry(inner, NoRetry()); ex != Exchanger(inner) {
		t.Error("MaxAttempts=1 should return the exchanger unchanged")
	}
}

func TestRetryCloseForwards(t *testing.T) {
	inner := &scriptedExchanger{}
	ex := WithRetry(inner, DefaultRetryPolicy())
	if err := ex.Close(); err != nil || !inner.closed {
		t.Errorf("close not forwarded (err %v, closed %v)", err, inner.closed)
	}
}
