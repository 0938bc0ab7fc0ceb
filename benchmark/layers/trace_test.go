package main

import (
	"strings"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	r := &recorder{}
	r.reset(true)
	r.newReq()
	r.spans = []span{
		{Name: "frontend", ID: 0, Parent: -1, Req: 1, Start: 0, End: 1000},
		{Name: "handler", ID: 1, Parent: 0, Req: 1, Start: 100, End: 400},
		{Name: "upstream", ID: 2, Parent: 1, Req: 1, Start: 150, End: 250},
		{Name: "handler", ID: 3, Parent: 0, Req: 1, Start: 500, End: 600},
		{Name: "frontend", ID: 4, Parent: -1, Req: 2, Start: 2000}, // never ended
	}
	got := r.aggregate()
	want := map[string]spanStat{
		"frontend": {count: 1, total: 1000, self: 600},
		"handler":  {count: 2, total: 400, self: 300},
		"upstream": {count: 1, total: 100, self: 100},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: %+v, want %+v", name, got[name], w)
		}
	}
}

func TestRecorderNests(t *testing.T) {
	r := &recorder{}
	r.reset(true)
	r.newReq()
	outer := r.begin("frontend")
	inner := r.begin("handler")
	r.end(inner)
	r.end(outer)
	if r.spans[inner].Parent != outer || r.spans[outer].Parent != -1 || r.spans[inner].Req != r.spans[outer].Req {
		t.Errorf("spans %+v", r.spans)
	}
	r.reset(false)
	if id := r.begin("frontend"); id != -1 || len(r.spans) != 0 {
		t.Error("the no-op shim recorded a span")
	}
}

// TestChainsSmoke replays every mix briefly and checks that every timed
// rung came out positive.
func TestChainsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every chain")
	}
	for _, w := range workloads {
		b := &bench{rec: &recorder{}, trace: &traceFile{}, seed: 1, workload: w.name}
		rungs, err := w.run(b, 400*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for name, v := range rungs {
			if strings.HasSuffix(name, "_ns") && !(v > 0) {
				t.Errorf("%s: %s = %v", w.name, name, v)
			}
		}
		if len(b.trace.spans) == 0 {
			t.Errorf("%s: no spans kept", w.name)
		}
	}
}
