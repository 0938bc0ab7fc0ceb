package transport

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Race runs attempts concurrently and returns the first success,
// cancelling the rest. Attempt 0 starts immediately; each further
// attempt starts after another stagger interval, or immediately when an
// earlier attempt fails (a stagger of 0 launches everything at once — a
// pure race). The returned index identifies the winning attempt. When
// every attempt fails, the index is -1 and the error joins every
// attempt's error; a parent-context cancellation returns ctx.Err().
//
// Attempts must honour context cancellation: once a winner returns, the
// losers' context is cancelled and each goroutine exits as soon as its
// attempt observes that. Results from losers are discarded.
//
// Race is the primitive under the recursive resolver's hedged referral
// exchanges.
func Race[T any](ctx context.Context, stagger time.Duration, attempts []func(context.Context) (T, error)) (T, int, error) {
	var zero T
	if len(attempts) == 0 {
		return zero, -1, errors.New("transport: race with no attempts")
	}
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel() // discard stragglers once a winner is chosen

	type result struct {
		idx int
		val T
		err error
	}
	resC := make(chan result, len(attempts)) // buffered: losers never block
	launch := func(i int) {
		go func() {
			v, err := attempts[i](raceCtx)
			resC <- result{idx: i, val: v, err: err}
		}()
	}

	launch(0)
	launched := 1
	if stagger <= 0 {
		for ; launched < len(attempts); launched++ {
			launch(launched)
		}
	}
	var timer *time.Timer
	var timerC <-chan time.Time
	if launched < len(attempts) {
		timer = time.NewTimer(stagger)
		timerC = timer.C
		defer timer.Stop()
	}

	errs := make([]error, 0, len(attempts))
	for {
		select {
		case r := <-resC:
			if r.err == nil {
				return r.val, r.idx, nil
			}
			errs = append(errs, fmt.Errorf("attempt %d: %w", r.idx, r.err))
			if len(errs) == len(attempts) {
				return zero, -1, errors.Join(errs...)
			}
			// A failure releases the next hedge immediately.
			if launched < len(attempts) {
				launch(launched)
				launched++
			}
		case <-timerC:
			if launched < len(attempts) {
				launch(launched)
				launched++
			}
			if launched < len(attempts) {
				timer.Reset(stagger)
			} else {
				timerC = nil
			}
		case <-ctx.Done():
			return zero, -1, ctx.Err()
		}
	}
}
