// Command layers is the benchmark's traced run. It composes each serving
// chain in-process from the layers' public constructors, records a span
// around every call across the seams the layers already expose
// (dns53.Handler, the resolver's upstream exchanger, http.Handler,
// core.Prober), and prints per-layer self times: a span's duration minus
// what its child spans cover. Every chain is a closed loop with one
// request in flight on one P, so spans nest and wall time is CPU time.
// It runs each chain once traced and once with no-op shims; the ratio is
// the tracing overhead. Nothing here feeds an end-to-end metric. The
// ladder residuals (the black-box run's server CPU per op minus the
// rungs) are the harness's to compute: it owns that CPU figure.
//
//	go run ./layers [-workload W] [-seed N] [-seconds S]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// bench is the state the chains of one workload share.
type bench struct {
	rec      *recorder
	trace    *traceFile
	seed     uint64
	workload string
}

// workloads maps the benchmark's six mixes to the chains that replay them.
var workloads = []struct {
	name string
	run  func(b *bench, d time.Duration) (map[string]float64, error)
}{
	{"udp-hit", func(b *bench, d time.Duration) (map[string]float64, error) { return b.servingRungs("udp", false, d) }},
	{"udp-miss", func(b *bench, d time.Duration) (map[string]float64, error) { return b.servingRungs("udp", true, d) }},
	{"dot-hit", func(b *bench, d time.Duration) (map[string]float64, error) { return b.servingRungs("dot", false, d) }},
	{"doh-hit", func(b *bench, d time.Duration) (map[string]float64, error) { return b.servingRungs("doh", false, d) }},
	{"probe-fresh", (*bench).probeRungs},
	{"campaign-sim", (*bench).simRungs},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		only     = flag.String("workload", "", "replay this one mix (default: all six)")
		seed     = flag.Uint64("seed", 1, "seed of the query streams and the simulated campaign")
		seconds  = flag.Float64("seconds", 4, "measuring time per workload")
		asJSON   = flag.Bool("json", false, "print the rungs as one JSON object, workload → metric → value")
		traceOut = flag.String("trace-out", filepath.Join("out", "trace.jsonl"), "write the head of every chain's spans here")
	)
	flag.Parse()
	// The servers the black-box run measures have one CPU, hence one P.
	runtime.GOMAXPROCS(1)

	if err := os.MkdirAll(filepath.Dir(*traceOut), 0o755); err != nil {
		return err
	}
	trace := &traceFile{path: *traceOut}
	rec := &recorder{}
	all := make(map[string]map[string]float64)
	for _, w := range workloads {
		if *only != "" && *only != w.name {
			continue
		}
		b := &bench{rec: rec, trace: trace, seed: *seed, workload: w.name}
		rungs, err := w.run(b, time.Duration(*seconds*float64(time.Second)))
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		all[w.name] = rungs
	}
	if len(all) == 0 {
		return fmt.Errorf("unknown workload %q", *only)
	}
	if err := trace.write(); err != nil {
		return err
	}
	if *asJSON {
		return json.NewEncoder(os.Stdout).Encode(all)
	}
	for _, w := range workloads {
		rungs, ok := all[w.name]
		if !ok {
			continue
		}
		fmt.Printf("\n%s\n", w.name)
		names := make([]string, 0, len(rungs))
		for name := range rungs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-32s %12.1f\n", name, rungs[name])
		}
	}
	fmt.Printf("\nspans written to %s\n", *traceOut)
	return nil
}
