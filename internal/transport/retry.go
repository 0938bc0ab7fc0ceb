package transport

import (
	"context"
	"math/rand/v2"
	"time"
)

// RetryPolicy configures the attempt loop every Dial'd exchanger runs.
// The zero value is usable: Dial normalizes it.
type RetryPolicy struct {
	// MaxAttempts is the total number of exchange attempts; values < 1
	// normalize to the default (3, the classic stub-resolver budget).
	MaxAttempts int
	// Sleep waits between attempts; nil sleeps on the real clock. Tests
	// inject a fake to assert the exact backoff sequence without waiting.
	Sleep func(ctx context.Context, d time.Duration) error
}

// The backoff between attempts: decorrelated jitter from 50ms, capped at
// 1s, from a fixed seed so that a re-run waits exactly as long.
const (
	backoffBase = 50 * time.Millisecond
	backoffMax  = time.Second
	backoffSeed = 1
)

// DefaultRetryPolicy is the policy Dial applies when Options.Retry is
// nil: three attempts.
func DefaultRetryPolicy() RetryPolicy { return RetryPolicy{MaxAttempts: 3} }

// NoRetry is a policy of one attempt.
func NoRetry() RetryPolicy { return RetryPolicy{MaxAttempts: 1} }

func (p RetryPolicy) normalize() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 3
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
