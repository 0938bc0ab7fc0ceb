package core

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"encdns/internal/stats"
)

// ResultSet accumulates measurement records and answers the analysis
// queries the paper's results section needs. Safe for concurrent Add.
//
// It is a log plus a column index: records holds every record in arrival
// order (the result file), cols the durations of the successful ones per
// (kind, vantage, resolver) cell in that same order (what every figure and
// table reads). The log is append-only, so the index is never invalidated:
// it covers records[:indexed], and a read extends it over whatever has
// been added since. A writer that is never read pays nothing for it.
type ResultSet struct {
	mu      sync.Mutex
	records []Record
	cols    map[cell][]float64
	indexed int
}

// cell keys one column of the index.
type cell struct {
	kind              Kind
	vantage, resolver string
}

// NewResultSet returns an empty result set.
func NewResultSet() *ResultSet { return &ResultSet{} }

// Add appends one record.
func (rs *ResultSet) Add(r Record) {
	rs.mu.Lock()
	rs.records = append(rs.records, r)
	rs.mu.Unlock()
}

// Len reports the number of records.
func (rs *ResultSet) Len() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.records)
}

// logged returns the records added so far, without copying them. A record
// is never modified once appended, so the prefix captured here may be read
// after the lock is released while other goroutines keep adding.
func (rs *ResultSet) logged() []Record {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.records
}

// Records returns a copy of all records.
func (rs *ResultSet) Records() []Record {
	return append([]Record(nil), rs.logged()...)
}

// Merge appends all records from other.
func (rs *ResultSet) Merge(other *ResultSet) {
	recs := other.logged()
	rs.mu.Lock()
	rs.records = append(rs.records, recs...)
	rs.mu.Unlock()
}

// Filter returns the records matching pred.
func (rs *ResultSet) Filter(pred func(Record) bool) []Record {
	var out []Record
	recs := rs.logged()
	for i := range recs {
		if pred(recs[i]) {
			out = append(out, recs[i])
		}
	}
	return out
}

// QuerySamples returns successful query response times in ms for one
// (vantage, resolver) pair, in record order. The slice is the caller's.
func (rs *ResultSet) QuerySamples(vantage, resolver string) []float64 {
	return rs.samples(KindQuery, vantage, resolver)
}

// PingSamples returns successful ping RTTs in ms for one (vantage,
// resolver) pair, in record order. The slice is the caller's.
func (rs *ResultSet) PingSamples(vantage, resolver string) []float64 {
	return rs.samples(KindPing, vantage, resolver)
}

// samples brings the index up to date with the log and copies one column
// out of it; nil when the cell is empty.
func (rs *ResultSet) samples(kind Kind, vantage, resolver string) []float64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.cols == nil {
		rs.cols = make(map[cell][]float64)
	}
	for ; rs.indexed < len(rs.records); rs.indexed++ {
		if r := &rs.records[rs.indexed]; r.OK {
			k := cell{r.Kind, r.Vantage, r.Resolver}
			rs.cols[k] = append(rs.cols[k], r.Milliseconds)
		}
	}
	return append([]float64(nil), rs.cols[cell{kind, vantage, resolver}]...)
}

// MedianResponse returns the median successful query response time for
// the pair, NaN when no samples exist.
func (rs *ResultSet) MedianResponse(vantage, resolver string) float64 {
	return stats.Median(rs.QuerySamples(vantage, resolver))
}

// Availability summarises the campaign's success/error tally — the
// paper's §4 "Are Non-Mainstream Resolvers Available?" numbers.
type Availability struct {
	// Successes and Errors count query records (pings excluded).
	Successes int `json:"successes"`
	Errors    int `json:"errors"`
	// ByClass tallies errors per class name.
	ByClass map[string]int `json:"by_class"`
	// ByResolver tallies error counts per resolver.
	ByResolver map[string]int `json:"by_resolver"`
	// QueriesByResolver tallies total queries per resolver.
	QueriesByResolver map[string]int `json:"queries_by_resolver"`
}

// ErrorRate returns errors / (successes + errors), zero when empty.
func (a Availability) ErrorRate() float64 {
	total := a.Successes + a.Errors
	if total == 0 {
		return 0
	}
	return float64(a.Errors) / float64(total)
}

// Unresponsive lists resolvers whose queries from the given tally all
// failed — the paper's §3.1 availability definition ("unresponsive from a
// given vantage point if we fail to receive any response").
func (rs *ResultSet) Unresponsive(vantage string) []string {
	type tally struct{ ok, total int }
	m := make(map[string]*tally)
	recs := rs.logged()
	for i := range recs {
		r := &recs[i]
		if r.Kind != KindQuery || (vantage != "" && r.Vantage != vantage) {
			continue
		}
		t := m[r.Resolver]
		if t == nil {
			t = &tally{}
			m[r.Resolver] = t
		}
		t.total++
		if r.OK {
			t.ok++
		}
	}
	var out []string
	for res, t := range m {
		if t.total > 0 && t.ok == 0 {
			out = append(out, res)
		}
	}
	sort.Strings(out)
	return out
}

// Availability tallies the query success/error counts.
func (rs *ResultSet) Availability() Availability {
	a := Availability{
		ByClass:           make(map[string]int),
		ByResolver:        make(map[string]int),
		QueriesByResolver: make(map[string]int),
	}
	recs := rs.logged()
	for i := range recs {
		r := &recs[i]
		if r.Kind != KindQuery {
			continue
		}
		a.QueriesByResolver[r.Resolver]++
		if r.OK {
			a.Successes++
		} else {
			a.Errors++
			a.ByClass[r.Error]++
			a.ByResolver[r.Resolver]++
		}
	}
	return a
}

// WriteJSON streams the records as JSON Lines (one record per line), the
// tool's result-file format ("the tool writes the results to a JSON
// file", §3.1). JSON Lines keeps multi-gigabyte campaigns streamable.
func (rs *ResultSet) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	recs := rs.logged()
	for i := range recs {
		b, err := appendRecord(bw.AvailableBuffer(), &recs[i])
		if err != nil {
			return fmt.Errorf("core: encoding record: %w", err)
		}
		if _, err := bw.Write(b); err != nil {
			return fmt.Errorf("core: writing record: %w", err)
		}
	}
	return bw.Flush()
}

// WriteJSONFile writes the records to path.
func (rs *ResultSet) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: creating %s: %w", path, err)
	}
	if err := rs.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// JSONLSink returns a campaign Sink that appends each record to w as JSON
// Lines, flushing per record — the continuous-deployment path where months
// of results stream to disk as they happen. The bytes are WriteJSON's for
// the same records.
func JSONLSink(w io.Writer) func(Record) error {
	var (
		mu  sync.Mutex
		buf []byte
	)
	return func(r Record) error {
		mu.Lock()
		defer mu.Unlock()
		b, err := appendRecord(buf[:0], &r)
		if err != nil {
			return err
		}
		buf = b
		_, err = w.Write(b)
		return err
	}
}
