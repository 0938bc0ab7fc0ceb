package transport

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"encdns/internal/dnswire"
	"encdns/internal/obs"
)

// RetryPolicy configures the retry middleware. The zero value is not
// usable directly — pass it through normalize (Dial does) or start from
// DefaultRetryPolicy.
type RetryPolicy struct {
	// MaxAttempts is the total number of exchange attempts; values < 1
	// normalize to the default (3, the classic stub-resolver budget).
	MaxAttempts int
	// BaseDelay is the backoff floor before the second attempt; zero
	// means 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; zero means 1s.
	MaxDelay time.Duration
	// Seed fixes the jitter stream, making backoff sequences
	// deterministic; zero means 1.
	Seed uint64
	// Sleep waits between attempts; nil sleeps on the real clock. Tests
	// inject a fake to assert the exact backoff sequence without waiting.
	Sleep func(ctx context.Context, d time.Duration) error
}

// DefaultRetryPolicy is the policy Dial applies when Options.Retry is
// nil: three attempts, 50ms–1s decorrelated-jitter backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second, Seed: 1}
}

// NoRetry is a policy that disables the retry middleware (one attempt).
func NoRetry() RetryPolicy { return RetryPolicy{MaxAttempts: 1} }

func (p RetryPolicy) normalize() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Sleep == nil {
		p.Sleep = sleepCtx
	}
	return p
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Backoff produces a decorrelated-jitter backoff sequence (Brooker's
// "exponential backoff and jitter"): each delay is drawn uniformly from
// [base, 3×previous], capped at max. A seeded PCG stream makes the
// sequence reproducible — measurement runs must be re-runnable
// bit-for-bit, and tests assert the exact sequence.
type Backoff struct {
	base, max, prev time.Duration
	rng             *rand.Rand
}

// NewBackoff builds a deterministic backoff sequence.
func NewBackoff(base, max time.Duration, seed uint64) *Backoff {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max < base {
		max = base
	}
	return &Backoff{base: base, max: max, prev: base,
		rng: rand.New(rand.NewPCG(seed, 0xEDD5306C99F6D2F1))}
}

// Next returns the next delay in the sequence.
func (b *Backoff) Next() time.Duration {
	hi := 3 * b.prev
	if hi > b.max {
		hi = b.max
	}
	d := b.base
	if hi > b.base {
		d += time.Duration(b.rng.Int64N(int64(hi - b.base + 1)))
	}
	b.prev = d
	return d
}

// WithRetry wraps ex with the retry policy: failed exchanges are retried
// up to MaxAttempts total, sleeping a decorrelated-jitter backoff between
// attempts. Each Exchange call restarts the (seeded, deterministic)
// backoff sequence. A policy of one attempt returns ex unchanged.
func WithRetry(ex Exchanger, p RetryPolicy) Exchanger {
	p = p.normalize()
	if p.MaxAttempts == 1 {
		return ex
	}
	return &retryExchanger{inner: ex, policy: p}
}

type retryExchanger struct {
	inner  Exchanger
	policy RetryPolicy
}

func (r *retryExchanger) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	bo := NewBackoff(r.policy.BaseDelay, r.policy.MaxDelay, r.policy.Seed)
	var lastErr error
	for attempt := 0; attempt < r.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			delay := bo.Next()
			retryAttempts.Inc()
			obs.Annotate(ctx, "retry: attempt %d after %s backoff", attempt+1, delay)
			if err := r.policy.Sleep(ctx, delay); err != nil {
				break // context cancelled while backing off
			}
		}
		resp, err := r.inner.Exchange(ctx, q)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	retryExhausted.Inc()
	return nil, fmt.Errorf("transport: %d attempt(s) failed: %w", r.policy.MaxAttempts, lastErr)
}

func (r *retryExchanger) Close() error { return r.inner.Close() }
