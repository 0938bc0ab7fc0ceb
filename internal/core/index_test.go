package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"
)

// scanSamples is the reference the column index replaced: a pass over the
// whole log, in record order.
func scanSamples(recs []Record, kind Kind, vantage, resolver string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Kind == kind && r.OK && r.Vantage == vantage && r.Resolver == resolver {
			out = append(out, r.Milliseconds)
		}
	}
	return out
}

var (
	indexVantages  = []string{"v0", "v1", "v2", ""}
	indexResolvers = []string{"r0", "r1", "r2", "r3", "r4", "never-ok"}
)

// randomRecord draws from a small cell space so columns collide, with an
// empty vantage name (once the wildcard, now an ordinary key) and one
// resolver that never succeeds (a cell that must stay empty).
func randomRecord(rng *rand.Rand, round int) Record {
	r := Record{
		Time:     time.Unix(int64(round), 0).UTC(),
		Vantage:  indexVantages[rng.IntN(len(indexVantages))],
		Resolver: indexResolvers[rng.IntN(len(indexResolvers))],
		Kind:     KindQuery,
		Round:    round,
	}
	if rng.IntN(4) == 0 {
		r.Kind = KindPing
	} else {
		r.Protocol, r.Domain = "doh", "google.com"
	}
	r.OK = r.Resolver != "never-ok" && rng.IntN(5) != 0
	if r.OK || r.Kind == KindQuery {
		r.Milliseconds = rng.Float64() * 600
	}
	if !r.OK {
		r.Error = "timeout"
	}
	return r
}

// checkColumns compares every cell of the index with the scan of the
// set's own log, absent cells included.
func checkColumns(t *testing.T, rs *ResultSet, when string) {
	t.Helper()
	recs := rs.Records()
	for _, kind := range []Kind{KindQuery, KindPing} {
		for _, v := range indexVantages {
			for _, res := range append([]string{"absent"}, indexResolvers...) {
				got := rs.QuerySamples(v, res)
				if kind == KindPing {
					got = rs.PingSamples(v, res)
				}
				want := scanSamples(recs, kind, v, res)
				if !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("%s: column (%s, %q, %s): index has %d samples, scan %d",
						when, kind, v, res, len(got), len(want))
				}
			}
		}
	}
}

func TestIndexMatchesScan(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 18))
		rs, side, tripped := NewResultSet(), NewResultSet(), false
		for i := 0; i < 2000; i++ {
			rs.Add(randomRecord(rng, i))
			switch rng.IntN(300) {
			case 0: // reads interleaved with writes
				checkColumns(t, rs, fmt.Sprintf("seed %d after %d adds", seed, i+1))
			case 1: // Merge another set in, then keep adding to both
				for j := rng.IntN(50); j > 0; j-- {
					side.Add(randomRecord(rng, i))
				}
				rs.Merge(side)
				checkColumns(t, rs, "after Merge")
			case 2: // a set merged into itself doubles
				n := rs.Len()
				if n > 2000 {
					break
				}
				rs.Merge(rs)
				if rs.Len() != 2*n {
					t.Fatalf("self-merge: %d records from %d", rs.Len(), n)
				}
				checkColumns(t, rs, "after self-merge")
			case 3: // continue from a WriteJSON/readJSON round trip, once
				if tripped {
					break
				}
				tripped = true
				var buf bytes.Buffer
				if err := rs.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				back := readJSON(t, &buf)
				if !slices.Equal(back.Records(), rs.Records()) {
					t.Fatal("round trip changed the log")
				}
				rs = back
				checkColumns(t, rs, "after readJSON")
			}
		}
		checkColumns(t, rs, "at the end")
		if got := rs.MedianResponse("v1", "never-ok"); !math.IsNaN(got) {
			t.Errorf("median of an empty column = %v, want NaN", got)
		}
	}
}

// A returned column is a copy: the caller may sort or overwrite it.
func TestSamplesAreTheCallers(t *testing.T) {
	rs := NewResultSet()
	for _, ms := range []float64{30, 10, 20} {
		rs.Add(Record{Kind: KindQuery, Vantage: "v", Resolver: "r", OK: true, Milliseconds: ms})
	}
	got := rs.QuerySamples("v", "r")
	slices.Sort(got)
	got[0] = -1
	if again := rs.QuerySamples("v", "r"); !slices.Equal(again, []float64{30, 10, 20}) {
		t.Errorf("column after the caller mutated its copy: %v", again)
	}
}

// Concurrent Add (what live sinks may do) with readers alongside; run under -race. Record order across
// goroutines is not defined, so the check is against the set's own log.
func TestIndexConcurrentAdd(t *testing.T) {
	rs := NewResultSet()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 7))
			for i := 0; i < 500; i++ {
				rs.Add(randomRecord(rng, i))
				if i%50 == 0 {
					rs.QuerySamples("v0", "r0")
					rs.Availability()
					rs.Unresponsive("")
				}
			}
		}()
	}
	wg.Wait()
	if rs.Len() != 8*500 {
		t.Fatalf("records = %d", rs.Len())
	}
	checkColumns(t, rs, "after concurrent adds")
}

// paperScaleSet has the default reproduction's shape: 7 vantages × 75
// resolvers × (3 queries + 1 ping) × 80 rounds = 168 000 records.
func paperScaleSet() *ResultSet {
	rs := NewResultSet()
	for round := 0; round < 80; round++ {
		for v := 0; v < 7; v++ {
			for r := 0; r < 75; r++ {
				rec := Record{Vantage: fmt.Sprint("vantage-", v), Resolver: fmt.Sprint("resolver-", r),
					Round: round, OK: true, Milliseconds: float64(round)}
				rec.Kind = KindQuery
				rs.Add(rec)
				rs.Add(rec)
				rs.Add(rec)
				rec.Kind = KindPing
				rs.Add(rec)
			}
		}
	}
	return rs
}

// The cost shape: a read is one probe and one copy of its own cell,
// whatever the size of the log.
func TestSamplesAllocateOnce(t *testing.T) {
	rs := paperScaleSet()
	if rs.Len() != 168000 {
		t.Fatalf("records = %d", rs.Len())
	}
	var n int
	allocs := testing.AllocsPerRun(100, func() { n = len(rs.QuerySamples("vantage-3", "resolver-40")) })
	if n != 240 || allocs != 1 {
		t.Errorf("read of a %d-sample column: %v allocations, want 1", n, allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { rs.PingSamples("vantage-3", "nobody") }); allocs != 0 {
		t.Errorf("read of an empty column: %v allocations, want 0", allocs)
	}
}

var sinkSamples []float64

func BenchmarkSamplesIndexed(b *testing.B) {
	rs := paperScaleSet()
	rs.QuerySamples("", "") // the first read indexes the log; time the ones after it
	for b.Loop() {
		sinkSamples = rs.QuerySamples("vantage-3", "resolver-40")
	}
}

// BenchmarkSamplesScan is the same read by the pass over the log that the
// index replaced, for the ratio.
func BenchmarkSamplesScan(b *testing.B) {
	recs := paperScaleSet().Records()
	for b.Loop() {
		sinkSamples = scanSamples(recs, KindQuery, "vantage-3", "resolver-40")
	}
}
