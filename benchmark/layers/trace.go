package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the span that was open when this one began (-1 at the root).
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    uint32 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory. Every chain runs closed-loop with one
// request in flight, so the spans of a request open and close strictly
// nested even though they are recorded from different goroutines (client,
// server worker, resolver); one stack of open spans is therefore enough
// to find each span's parent. With on false, begin and end do nothing:
// that is the no-op shim the untraced pass runs with.
type recorder struct {
	mu    sync.Mutex
	on    atomic.Bool
	epoch time.Time
	spans []span
	open  []int32
	req   uint32
}

// maxSpans bounds one chain's memory (about 45 MB); a chain stops early
// when it gets there.
const maxSpans = 1 << 19

func (r *recorder) reset(on bool) {
	r.mu.Lock()
	r.epoch, r.spans, r.open, r.req = time.Now(), r.spans[:0], r.open[:0], 0
	r.mu.Unlock()
	r.on.Store(on)
}

// newReq starts the next request and reports whether there is room to
// record it.
func (r *recorder) newReq() bool {
	if !r.on.Load() {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.req++
	return len(r.spans) < maxSpans-16
}

func (r *recorder) begin(name string) int32 {
	if !r.on.Load() {
		return -1
	}
	r.mu.Lock()
	id := int32(len(r.spans))
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, id)
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Req: r.req})
	// The clock is read last so that the bookkeeping above falls to the
	// parent, not to this span.
	r.spans[id].Start = int64(time.Since(r.epoch))
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int32) {
	if id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	if n := len(r.open); n > 0 && r.open[n-1] == id {
		r.open = r.open[:n-1]
	}
	r.mu.Unlock()
}

// spanStat sums one span name over a chain.
type spanStat struct {
	count int
	total int64 // ns inside the spans
	self  int64 // ns inside the spans and outside their children
}

// aggregate computes, per span name, the total and the self time: a
// span's duration minus the part its child spans cover.
func (r *recorder) aggregate() map[string]spanStat {
	covered := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 && s.End > 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]spanStat)
	for i, s := range r.spans {
		if s.End == 0 {
			continue // still open when the chain stopped
		}
		st := out[s.Name]
		st.count++
		st.total += s.End - s.Start
		st.self += s.End - s.Start - covered[i]
		out[s.Name] = st
	}
	return out
}

// traceFile collects the head of every chain's spans and writes them as
// JSON Lines when the program ends.
type traceFile struct {
	path  string
	spans []keptSpan
}

// keptSpan is a span with the workload and chain it came from.
type keptSpan struct {
	Workload string `json:"workload"`
	Chain    string `json:"chain"`
	span
}

// traceHead is how many spans of each chain the file keeps: the first
// few hundred requests, enough to read the nesting without a 100 MB file.
const traceHead = 2000

func (t *traceFile) keep(workload, chain string, r *recorder) {
	n := min(len(r.spans), traceHead)
	for _, s := range r.spans[:n] {
		if s.End == 0 {
			continue
		}
		t.spans = append(t.spans, keptSpan{Workload: workload, Chain: chain, span: s})
	}
}

func (t *traceFile) write() error {
	if t.path == "" {
		return nil
	}
	f, err := os.Create(t.path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
