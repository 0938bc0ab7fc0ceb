package transport

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestRaceFirstSuccessWins(t *testing.T) {
	attempts := []func(context.Context) (int, error){
		func(ctx context.Context) (int, error) {
			select {
			case <-time.After(5 * time.Second):
				return 0, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		},
		func(ctx context.Context) (int, error) { return 42, nil },
	}
	v, idx, err := Race(context.Background(), 0, attempts)
	if err != nil || v != 42 || idx != 1 {
		t.Fatalf("Race = (%d, %d, %v), want (42, 1, nil)", v, idx, err)
	}
}

func TestRaceAllFailJoinsErrors(t *testing.T) {
	e0, e1 := errors.New("first down"), errors.New("second down")
	attempts := []func(context.Context) (int, error){
		func(context.Context) (int, error) { return 0, e0 },
		func(context.Context) (int, error) { return 0, e1 },
	}
	_, idx, err := Race(context.Background(), 0, attempts)
	if idx != -1 {
		t.Errorf("idx = %d, want -1", idx)
	}
	if !errors.Is(err, e0) || !errors.Is(err, e1) {
		t.Errorf("joined error %v missing an attempt error", err)
	}
}

func TestRaceStaggerSkipsHedgeOnFastSuccess(t *testing.T) {
	var launched atomic.Int32
	attempts := []func(context.Context) (int, error){
		func(context.Context) (int, error) { launched.Add(1); return 1, nil },
		func(context.Context) (int, error) { launched.Add(1); return 2, nil },
	}
	v, idx, err := Race(context.Background(), time.Hour, attempts)
	if err != nil || v != 1 || idx != 0 {
		t.Fatalf("Race = (%d, %d, %v), want (1, 0, nil)", v, idx, err)
	}
	if launched.Load() != 1 {
		t.Errorf("launched = %d attempts, hedge should never start", launched.Load())
	}
}

func TestRaceFailureReleasesHedgeEarly(t *testing.T) {
	start := time.Now()
	attempts := []func(context.Context) (int, error){
		func(context.Context) (int, error) { return 0, errors.New("down") },
		func(context.Context) (int, error) { return 2, nil },
	}
	v, idx, err := Race(context.Background(), time.Hour, attempts)
	if err != nil || v != 2 || idx != 1 {
		t.Fatalf("Race = (%d, %d, %v), want (2, 1, nil)", v, idx, err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("hedge waited %v; a failure should release it immediately", elapsed)
	}
}

func TestRaceParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	attempts := []func(context.Context) (int, error){
		func(ctx context.Context) (int, error) { <-ctx.Done(); return 0, ctx.Err() },
	}
	_, _, err := Race(ctx, 0, attempts)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRaceNoAttempts(t *testing.T) {
	if _, _, err := Race[int](context.Background(), 0, nil); err == nil {
		t.Error("empty race succeeded")
	}
}
