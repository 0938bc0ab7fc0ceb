package resolver

import (
	"context"
	"sync"
	"time"

	"encdns/internal/dnswire"
)

// sfResult is the shared outcome of one deduplicated resolution.
type sfResult struct {
	rrs   []dnswire.Record
	rcode dnswire.RCode
	err   error
}

// sfCall is one in-flight resolution. done is made by the first caller
// that has to wait (under the group's lock) and closed once res is final;
// a resolution nobody waited for never has one.
type sfCall struct {
	done chan struct{}
	res  sfResult
}

// singleflight deduplicates concurrent resolutions of the same
// (name, type): the first caller becomes the leader and walks upstream,
// later callers wait for the leader's result instead of launching their
// own referral walks. A thundering herd of identical misses therefore
// costs one upstream resolution. The zero value is ready to use.
type singleflight struct {
	mu sync.Mutex
	m  map[cacheKey]*sfCall
}

// do runs r's walk for key once among concurrent callers and hands every
// caller the same result. Waiters whose own context expires give up with
// that context's error; the leader always walks to completion so its
// result can still populate the cache for the next query.
func (g *singleflight) do(ctx context.Context, r *Recursive, key cacheKey, now time.Time) sfResult {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[cacheKey]*sfCall)
	}
	if c, ok := g.m[key]; ok {
		if c.done == nil {
			c.done = make(chan struct{})
		}
		done := c.done
		g.mu.Unlock()
		select {
		case <-done:
			return c.res
		case <-ctx.Done():
			return sfResult{rcode: dnswire.RCodeServFail, err: ctx.Err()}
		}
	}
	c := &sfCall{}
	g.m[key] = c
	g.mu.Unlock()

	c.res.rrs, c.res.rcode, c.res.err = r.resolveWalk(ctx, key, now, 0)

	g.mu.Lock()
	delete(g.m, key)
	done := c.done
	g.mu.Unlock()
	if done != nil {
		close(done)
	}
	return c.res
}
