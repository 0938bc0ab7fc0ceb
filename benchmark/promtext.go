package main

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// parseMetrics reads Prometheus text exposition into series → value,
// keyed by the series exactly as written (name plus label set, e.g.
// `resolver_cache_hit_serve_total{path="template"}`). Comment lines and
// lines that do not parse are skipped: a scrape is evidence, not input.
func parseMetrics(r io.Reader) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label braces; label
		// values may themselves hold spaces.
		end := strings.LastIndexByte(line, '}')
		sp := strings.IndexByte(line[end+1:], ' ')
		if sp < 0 {
			continue
		}
		key := strings.TrimSpace(line[:end+1+sp])
		fields := strings.Fields(line[end+1+sp:])
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		out[key] = v
	}
	return out
}

// scrape is one /metrics snapshot.
type scrape map[string]float64

// sumPrefix adds every series whose name (before any label set) is
// name; per-socket and per-method series fold into one figure.
func (s scrape) sumPrefix(name string) (float64, bool) {
	var sum float64
	found := false
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
			found = true
		}
	}
	return sum, found
}

// delta is after − before for the series named name (all label sets
// summed); absent reports whether the series is missing from after.
func delta(before, after scrape, name string) (d float64, absent bool) {
	a, ok := after.sumPrefix(name)
	if !ok {
		return 0, true
	}
	b, _ := before.sumPrefix(name)
	return a - b, false
}
