package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// metricDef names one metric of the contract in BENCHMARK.json.
type metricDef struct {
	name  string
	unit  string
	lower bool    // lower is better
	bound float64 // relative worsening that counts as a regression (fail_ratio: absolute)
}

// endToEnd are the metrics a user of the system sees. fail_ratio is in
// every result file and gates the exit code; the driver's result line
// carries it as attempted/failed instead, since it is 0 on a healthy tree.
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s", false, 0.25},
	{"latency_p50_us", "us", true, 0.25},
	{"setup_s", "s", true, 0.25},
}

var failRatio = metricDef{"fail_ratio", "ratio", true, 0.001}

// reported is what the report and -compare go through.
var reported = append(append([]metricDef{}, endToEnd...), failRatio)

// perLayer lists every per-layer metric, in report order. The harness
// measures the proc, env and /metrics rows; benchmark/layers the rest.
var perLayer = []metricDef{
	{name: "latency_p99_us", unit: "us"},
	{name: "proc.cpu_busy", unit: "ratio"},
	{name: "proc.server_busy", unit: "ratio"},
	{name: "proc.server_cpu_us_per_op", unit: "us"},
	{name: "proc.gen_cpu_us_per_op", unit: "us"},
	{name: "proc.server_rss_mb", unit: "MB"},
	{name: "env.calib_echo_us", unit: "us"},
	{name: "env.noisy_bucket_ratio", unit: "ratio"},
	{name: "env.cpu_moves", unit: "count"},
	{name: "resolver.cache_hit_ratio", unit: "ratio"},
	{name: "resolver.template_share", unit: "ratio"},
	{name: "resolver.evictions_per_op", unit: "count"},
	{name: "udpbatch.pkts_per_read_syscall", unit: "count"},
	{name: "udpbatch.pkts_per_write_syscall", unit: "count"},
	{name: "dns53.server_mean_us", unit: "us"},
	{name: "doh.server_mean_us", unit: "us"},
	{name: "runtime.gc_runs_per_kop", unit: "count"},
	{name: "runtime.gc_pause_us_per_kop", unit: "us"},
	{name: "runtime.heap_mb", unit: "MB"},
	{name: "experiment.shape_fail_ratio", unit: "ratio"},
	{name: "dnswire.parse_ns", unit: "ns"},
	{name: "dnswire.parse_allocs", unit: "count"},
	{name: "dnswire.pack_ns", unit: "ns"},
	{name: "dnswire.pack_allocs", unit: "count"},
	{name: "resolver.hit_self_ns", unit: "ns"},
	{name: "resolver.hit_allocs", unit: "count"},
	{name: "resolver.miss_self_ns", unit: "ns"},
	{name: "resolver.miss_allocs", unit: "count"},
	{name: "resolver.upstream_per_miss", unit: "count"},
	{name: "resolver.cache_put_ns", unit: "ns"},
	{name: "authdns.exchange_ns", unit: "ns"},
	{name: "dns53.udp_self_ns", unit: "ns"},
	{name: "dns53.udp_allocs", unit: "count"},
	{name: "udpbatch.socket_ns", unit: "ns"},
	{name: "dns53.stream_self_ns", unit: "ns"},
	{name: "dot.tls_self_ns", unit: "ns"},
	{name: "doh.handler_self_ns", unit: "ns"},
	{name: "doh.handler_allocs", unit: "count"},
	{name: "doh.http_tls_ns", unit: "ns"},
	{name: "transport.dial_ns", unit: "ns"},
	{name: "transport.tls_handshake_ns", unit: "ns"},
	{name: "transport.request_ns", unit: "ns"},
	{name: "transport.self_ns", unit: "ns"},
	{name: "netsim.query_ns", unit: "ns"},
	{name: "core.campaign_ns_per_probe", unit: "ns"},
	{name: "stats.summarize_ns", unit: "ns"},
	{name: "report.render_ns", unit: "ns"},
	{name: "experiment.figure_ns", unit: "ns"},
	{name: "ladder.udp-hit.residual_us", unit: "us"},
	{name: "ladder.dot-hit.residual_us", unit: "us"},
	{name: "ladder.doh-hit.residual_us", unit: "us"},
	{name: "trace.overhead_ratio", unit: "ratio"},
}

// ladders names, per hit workload, the server-side rungs its residual
// subtracts from proc.server_cpu_us_per_op.
var ladders = map[string][]string{
	"udp-hit": {"resolver.hit_self_ns", "dns53.udp_self_ns", "udpbatch.socket_ns"},
	"dot-hit": {"resolver.hit_self_ns", "dns53.stream_self_ns", "dot.tls_self_ns"},
	"doh-hit": {"resolver.hit_self_ns", "doh.handler_self_ns", "doh.http_tls_ns"},
}

// layerValue is one per-layer figure; Absent marks a /metrics series the
// server no longer exports, or a rung that is not on this workload's path.
type layerValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Absent bool    `json:"absent,omitempty"`
}

// workloadResult is one workload's part of the result file.
type workloadResult struct {
	EndToEnd  map[string]dist       `json:"end_to_end"`
	PerLayer  map[string]layerValue `json:"per_layer"`
	Flags     []string              `json:"flags"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	FirstErr  string                `json:"first_error,omitempty"`
	// SentinelUS is the echo sentinel's median round trip before each slice.
	SentinelUS []float64 `json:"sentinel_us"`
}

// envInfo fingerprints where a result was measured.
type envInfo struct {
	Go       string `json:"go"`
	Kernel   string `json:"kernel"`
	NProc    int    `json:"nproc"`
	Pinned   bool   `json:"pinned"`
	CPU      int    `json:"cpu"`
	Loopback bool   `json:"loopback"`
}

// resultFile is the fixed schema of benchmark/out/<commit>-<seed>.json.
type resultFile struct {
	Schema    string                    `json:"schema"`
	Commit    string                    `json:"commit"`
	Seed      uint64                    `json:"seed"`
	Seconds   float64                   `json:"seconds_per_workload"`
	Env       envInfo                   `json:"env"`
	Workloads map[string]workloadResult `json:"workloads"`
	Claim     *string                   `json:"claim"`
}

const schemaName = "encdns-benchmark/1"

// noisyFactor is how far above the run's quiet level a sentinel reading
// must be for the harness to try another CPU. The host this was written
// on has two levels, the upper 1.35 to 1.5 times the lower; readings
// within a level stay inside 5 %.
const noisyFactor = 1.15

// disturbedFactor is how far above the reported latency a bucket's must
// be to count as disturbed: the host's slow state makes the workloads
// 1.3 to 1.6 times slower, and the buckets of an undisturbed DoH or miss
// phase differ among themselves by 15 %.
const disturbedFactor = 1.3

// result folds the runner's slices and set-ups into the reported figures
// and the per-layer ones. Latency and throughput are read off buckets of
// a few milliseconds (see better); the per-layer rows cover all that ran.
func (r *runner) result() workloadResult {
	res := workloadResult{EndToEnd: map[string]dist{}, PerLayer: map[string]layerValue{}, Flags: []string{}}
	var latB, thrB []float64           // every bucket of the run
	var lat, thr, p99, fails []float64 // per slice
	var samples, done int
	var srvCPU, wall, genCPU float64
	var latM, thrM counters
	for _, s := range r.slices {
		res.Attempted += s.attempted
		res.Failed += s.failed
		fails = append(fails, ratio(float64(s.failed), float64(s.attempted)))
		res.SentinelUS = append(res.SentinelUS, s.echo)
		samples += len(s.lat)
		done += s.done
		srvCPU += s.srvCPU.Seconds()
		wall += s.wall.Seconds()
		genCPU += s.genCPU.Seconds()
		latM.merge(s.latM)
		thrM.merge(s.thrM)

		var b []float64
		for _, rounds := range buckets(s.lat) {
			b = append(b, median(rounds))
		}
		if len(b) > 0 {
			latB, lat = append(latB, b...), append(lat, better(b, true))
			sorted := append([]float64(nil), s.lat...)
			sort.Float64s(sorted)
			p99 = append(p99, percentile(sorted, 99))
		}
		b = b[:0]
		for _, rounds := range buckets(s.thr) {
			b = append(b, rate(rounds, s.ops))
		}
		if len(b) > 0 {
			thrB, thr = append(thrB, b...), append(thr, better(b, false))
		}
	}
	if r.err != nil {
		res.FirstErr = r.err.Error()
	}
	p50 := better(latB, true)
	res.EndToEnd["throughput_ops_s"] = summarize(better(thrB, false), thr, res.Attempted, "1/s")
	res.EndToEnd["latency_p50_us"] = summarize(p50, lat, samples, "us")
	// A set-up is one long operation, so it has no buckets: the figure is
	// the lower quartile of the run's set-ups, for the same reason.
	q1, _, _ := quartiles(r.setups)
	res.EndToEnd["setup_s"] = summarize(q1, r.setups, len(r.setups), "s")
	// Failures are not noise: the figure is the ratio over all that ran.
	res.EndToEnd["fail_ratio"] = summarize(ratio(float64(res.Failed), float64(res.Attempted)), fails, res.Attempted, "ratio")

	set := func(name string, v float64) {
		res.PerLayer[name] = layerValue{Value: number(v), Unit: unitOf(name)}
	}
	set("latency_p99_us", median(p99))
	kops := float64(done) / 1e3
	if r.srv != nil {
		set("proc.server_busy", ratio(srvCPU, wall))
		set("proc.server_cpu_us_per_op", ratio(srvCPU*1e6, float64(done)))
		set("proc.server_rss_mb", procRSSMB(r.srv.pid()))
		// Generator and server share the CPU; between them they must fill
		// it, or the throughput row measured a wait, not the program.
		cpuBusy := ratio(srvCPU+genCPU, wall)
		set("proc.cpu_busy", cpuBusy)
		if r.w.serving() && cpuBusy < 0.90 {
			res.Flags = append(res.Flags, "cpu_not_full")
		}
		r.metricsRows(&res, latM, thrM, kops)
	}
	set("proc.gen_cpu_us_per_op", ratio(genCPU*1e6, float64(done)))
	set("env.calib_echo_us", median(res.SentinelUS))
	set("env.cpu_moves", float64(r.e.moves))
	// How disturbed the run was: the share of its latency buckets that ran
	// disturbedFactor slower than the figure reported.
	noisy := 0
	for _, b := range latB {
		if b > disturbedFactor*p50 {
			noisy++
		}
	}
	set("env.noisy_bucket_ratio", ratio(float64(noisy), float64(len(latB))))
	if 2*noisy > len(latB) {
		res.Flags = append(res.Flags, "noisy")
	}
	if r.w.kind == "sim" {
		set("experiment.shape_fail_ratio", ratio(float64(r.shape[0]), float64(r.shape[1])))
	}
	return res
}

// metricsRows derives the /metrics rows from the summed deltas.
func (r *runner) metricsRows(res *workloadResult, l, t counters, kops float64) {
	row := func(name string, v float64, from counters, series ...string) {
		lv := layerValue{Value: v, Unit: unitOf(name)}
		for _, s := range series {
			if from.absent[s] {
				lv = layerValue{Unit: lv.Unit, Absent: true}
			}
		}
		res.PerLayer[name] = lv
	}
	hits, misses := t.sum["resolver_cache_hits_total"], t.sum["resolver_cache_misses_total"]
	row("resolver.cache_hit_ratio", ratio(hits, hits+misses), t, "resolver_cache_hits_total", "resolver_cache_misses_total")
	requests := t.sum["dns53_server_requests_total"] + t.sum["doh_server_requests_total"]
	const template = `resolver_cache_hit_serve_total{path="template"}`
	row("resolver.template_share", ratio(t.sum[template], requests), t, template)
	row("resolver.evictions_per_op", ratio(t.sum["resolver_cache_evictions_total"], requests), t, "resolver_cache_evictions_total")
	row("udpbatch.pkts_per_read_syscall", ratio(t.sum["udpbatch_read_packets_total"], t.sum["udpbatch_read_syscalls_total"]), t,
		"udpbatch_read_packets_total", "udpbatch_read_syscalls_total")
	row("udpbatch.pkts_per_write_syscall", ratio(t.sum["udpbatch_write_packets_total"], t.sum["udpbatch_write_syscalls_total"]), t,
		"udpbatch_write_packets_total", "udpbatch_write_syscalls_total")
	row("dns53.server_mean_us", ratio(l.sum["dns53_server_seconds_sum"]*1e6, l.sum["dns53_server_seconds_count"]), l,
		"dns53_server_seconds_sum", "dns53_server_seconds_count")
	row("doh.server_mean_us", ratio(l.sum["doh_server_seconds_sum"]*1e6, l.sum["doh_server_seconds_count"]), l,
		"doh_server_seconds_sum", "doh_server_seconds_count")
	row("runtime.gc_runs_per_kop", ratio(t.sum["process_gc_runs"], kops), t, "process_gc_runs")
	row("runtime.gc_pause_us_per_kop", ratio(t.sum["process_gc_pause_total_seconds"]*1e6, kops), t, "process_gc_pause_total_seconds")
	heap, ok := r.last["process_heap_alloc_bytes"]
	res.PerLayer["runtime.heap_mb"] = layerValue{Value: heap / (1 << 20), Unit: "MB", Absent: !ok}
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// mergeLayers adds the traced run's rungs and the residual they leave.
func (res *workloadResult) mergeLayers(workload string, rungs map[string]float64) {
	for name, v := range rungs {
		res.PerLayer[name] = layerValue{Value: v, Unit: unitOf(name)}
	}
	if names, ok := ladders[workload]; ok {
		var sum float64
		for _, n := range names {
			sum += rungs[n]
		}
		cpu := res.PerLayer["proc.server_cpu_us_per_op"].Value
		res.PerLayer["ladder."+workload+".residual_us"] = layerValue{Value: cpu - sum/1e3, Unit: "us"}
	}
}

// driverLine is the one JSON object the benchmark driver reads.
type driverLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]layerValue `json:"metrics"`
}

// driverResult renders res for the driver: every end-to-end metric with
// trace off, every per-layer metric (0 where a rung is not on the
// workload's path) with trace on.
func driverResult(res workloadResult, trace bool) driverLine {
	line := driverLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]layerValue{}}
	if trace {
		for _, m := range perLayer {
			line.Metrics[m.name] = layerValue{Value: res.PerLayer[m.name].Value, Unit: m.unit}
		}
		return line
	}
	for _, m := range endToEnd {
		line.Metrics[m.name] = layerValue{Value: res.EndToEnd[m.name].Value, Unit: m.unit}
	}
	return line
}

// printReport writes every metric by name with its unit.
func printReport(w io.Writer, f *resultFile) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, wl := range workloads {
		res, ok := f.Workloads[wl.name]
		if !ok {
			continue
		}
		fmt.Fprintf(tw, "\n%s\tflags=%v\tattempted=%d\tfailed=%d\t\n", wl.name, res.Flags, res.Attempted, res.Failed)
		for _, m := range reported {
			d := res.EndToEnd[m.name]
			fmt.Fprintf(tw, "  %s\t%.6g %s\tq1 %.6g\tmedian %.6g\tq3 %.6g\tslices %d\tsamples %d\n", m.name, d.Value, d.Unit, d.Q1, d.Median, d.Q3, d.NSlices, d.NSamples)
		}
		if res.FirstErr != "" {
			fmt.Fprintf(tw, "  first error\t%s\n", res.FirstErr)
		}
		names := make([]string, 0, len(res.PerLayer))
		for name := range res.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := res.PerLayer[name]
			if v.Absent {
				fmt.Fprintf(tw, "  %s\tabsent\n", name)
				continue
			}
			fmt.Fprintf(tw, "  %s\t%.6g %s\n", name, v.Value, v.Unit)
		}
		// The residual next to the rungs it subtracts.
		if rungs, ok := ladders[wl.name]; ok {
			if residual, ok := res.PerLayer["ladder."+wl.name+".residual_us"]; ok {
				fmt.Fprintf(tw, "  ladder\tproc.server_cpu_us_per_op %.4g us", res.PerLayer["proc.server_cpu_us_per_op"].Value)
				for _, rung := range rungs {
					fmt.Fprintf(tw, " - %s %.4g us", rung, res.PerLayer[rung].Value/1e3)
				}
				fmt.Fprintf(tw, " = residual %.4g us\n", residual.Value)
			}
		}
	}
	tw.Flush()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schemaName {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schemaName)
	}
	return &f, nil
}

// worsening is how much worse b is than a as a share of a: positive is
// worse, whichever direction the metric improves in.
func worsening(m metricDef, a, b float64) float64 {
	if m.name == failRatio.name {
		return b - a
	}
	if m.lower {
		return ratio(b-a, a)
	}
	return ratio(a-b, a)
}

// verdict compares one metric of two runs against its bound. The
// quartiles give an optimistic and a pessimistic reading of the change:
// worse or better needs both to agree, same needs both inside the bound,
// and anything else is unresolved — the spread is wider than the bound.
func verdict(m metricDef, a, b dist) (string, float64) {
	good, bad := func(d dist) float64 { return d.Q1 }, func(d dist) float64 { return d.Q3 }
	if !m.lower {
		good, bad = bad, good
	}
	mid := worsening(m, a.Value, b.Value)
	optimistic := worsening(m, bad(a), good(b))
	pessimistic := worsening(m, good(a), bad(b))
	switch {
	case optimistic > m.bound:
		return "worse", mid
	case pessimistic < -m.bound:
		return "better", mid
	case pessimistic <= m.bound && optimistic >= -m.bound:
		return "same", mid
	}
	return "unresolved", mid
}

// compare prints the per workload × metric comparison of two result
// files and reports whether any metric came out worse.
func compare(w io.Writer, a, b *resultFile) (worse bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta [q1 q3]\tb [q1 q3]\tworsening\tbound\tverdict\n")
	for _, wl := range workloads {
		ra, okA := a.Workloads[wl.name]
		rb, okB := b.Workloads[wl.name]
		if !okA || !okB {
			continue
		}
		for _, m := range reported {
			da, db := ra.EndToEnd[m.name], rb.EndToEnd[m.name]
			v, mid := verdict(m, da, db)
			if v == "worse" {
				worse = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g [%.5g %.5g]\t%.5g [%.5g %.5g]\t%+.2f%%\t%.1f%%\t%s\n",
				wl.name, m.name, da.Value, da.Q1, da.Q3, db.Value, db.Q1, db.Q3, mid*100, m.bound*100, v)
		}
		fmt.Fprintf(tw, "%s\tenv.noisy_bucket_ratio\t%.3g\t%.3g\t\t\t\n", wl.name,
			ra.PerLayer["env.noisy_bucket_ratio"].Value, rb.PerLayer["env.noisy_bucket_ratio"].Value)
	}
	tw.Flush()
	return worse
}
