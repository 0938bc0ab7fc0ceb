package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"encdns/benchmark/wire"
)

// workload is one traffic mix. The names are the benchmark's contract;
// why each is there is in BENCHMARK.json and README.md.
type workload struct {
	name   string
	kind   string // udp, dot, doh: a frontend of the server; probe, sim: a tool
	miss   bool
	window int // queries in a round of the throughput phase
	warmup int // queries sent before anything is timed
}

var workloads = []workload{
	{"udp-hit", "udp", false, 32, 2000},
	{"udp-miss", "udp", true, 32, 6000},
	{"dot-hit", "dot", false, 32, 2000},
	{"doh-hit", "doh", false, 16, 2000},
	{"probe-fresh", "probe", false, 1, 2000},
	{"campaign-sim", "sim", false, 1, 0},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) serving() bool { return w.kind == "udp" || w.kind == "dot" || w.kind == "doh" }

// sliceTime is the length of one slice in seconds. Before each slice the
// sentinel picks the CPU, so slices are short enough to follow a host
// that changes by the second.
const sliceTime = 0.25

// A serving slice is a latency phase (rounds of one query) then a
// throughput phase (rounds of the workload's window), 0.1 s and 0.15 s of
// a 0.25 s slice.
const latencyShare = 0.4

// probeRoundsPerSecond sizes a probe-fresh slice: 44 rounds (132
// fresh-connection probes) for a 0.25 s slice.
const probeRoundsPerSecond = 175

// simRounds and simLatencyOps shape a campaign-sim slice: three
// single-artefact runs (~17 ms each) that give the slice its latency
// samples, then one full reproduction (~0.17 s). The tool's time is
// linear in the rounds, 76 µs a record; two of them keep a slice the
// length of the others'.
const (
	simRounds     = 2
	simLatencyOps = 3
)

// slice is what one slice of one workload measured: the time of every
// round of its two phases, in µs and in order.
type slice struct {
	lat []float64 // latency phase: rounds of one operation
	thr []float64 // throughput phase: rounds of ops operations each
	ops int

	attempted int
	failed    int

	srvCPU, wall time.Duration // server process and the clock, throughput phase
	genCPU       time.Duration // generator (or tool) CPU, throughput phase
	done         int           // validated operations behind srvCPU and genCPU

	latM, thrM counters // /metrics deltas over the latency and the throughput phase

	echo float64 // the sentinel's reading before the slice, µs
}

// runner measures one workload.
type runner struct {
	e    *env
	w    workload
	seed uint64

	srv *server
	src *wire.QuerySource
	gen generator

	setups  []float64 // seconds each timed set-up took
	slices  []slice
	last    scrape
	simHash [sha256.Size]byte
	shape   [2]int // shape checks failed, total
	err     error  // first wrong answer or error seen, for the report
}

// counters accumulates /metrics deltas; absent remembers the series a
// scrape did not have.
type counters struct {
	sum    map[string]float64
	absent map[string]bool
}

var scraped = []string{
	"resolver_cache_hits_total", "resolver_cache_misses_total",
	`resolver_cache_hit_serve_total{path="template"}`, "resolver_cache_evictions_total",
	"dns53_server_requests_total", "doh_server_requests_total",
	"udpbatch_read_packets_total", "udpbatch_read_syscalls_total",
	"udpbatch_write_packets_total", "udpbatch_write_syscalls_total",
	"dns53_server_seconds_sum", "dns53_server_seconds_count",
	"doh_server_seconds_sum", "doh_server_seconds_count",
	"process_gc_runs", "process_gc_pause_total_seconds",
}

func (c *counters) add(before, after scrape) {
	if c.sum == nil {
		c.sum, c.absent = map[string]float64{}, map[string]bool{}
	}
	for _, name := range scraped {
		d, absent := delta(before, after, name)
		if absent {
			c.absent[name] = true
			continue
		}
		c.sum[name] += d
	}
}

// merge adds another set of deltas to c.
func (c *counters) merge(o counters) {
	if c.sum == nil {
		c.sum, c.absent = map[string]float64{}, map[string]bool{}
	}
	for name, d := range o.sum {
		c.sum[name] += d
	}
	for name := range o.absent {
		c.absent[name] = true
	}
}

// serverArgs are the server flags a workload needs.
func (w workload) serverArgs() []string {
	if w.miss {
		return []string{"-cache", "4096", "-prefetch", "0"}
	}
	return nil
}

// newGen connects the workload's generator to the runner's server.
func (r *runner) newGen() (generator, error) {
	switch r.w.kind {
	case "udp":
		return newUDPGen(r.srv.udpAddr, r.src)
	case "dot":
		return newDoTGen(r.srv.dotAddr, r.srv.tls, r.src)
	default: // doh, and probe-fresh's warm-up
		return newDoHGen(r.srv.dohURL, r.srv.tls, r.src), nil
	}
}

// coldStart is one timed set-up, on the CPU the sentinel picks: spawn the
// server, wait until every frontend answers, send the fixed-count
// warm-up. campaign-sim's set-up is a 5 ms process, so one visit times
// simSetups of them.
func (r *runner) coldStart() error {
	if _, err := r.e.settle(); err != nil {
		return err
	}
	if r.w.kind == "sim" {
		dir, err := os.MkdirTemp(r.e.tmp, "table1-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		for i := 0; i < simSetups; i++ {
			start := time.Now()
			if out, err := r.tool("repro", nil, "-out", dir, "-only", "table1").CombinedOutput(); err != nil {
				return fmt.Errorf("repro -only table1: %w\n%s", err, out)
			}
			r.setups = append(r.setups, time.Since(start).Seconds())
		}
		return nil
	}
	start := time.Now()
	srv, err := r.e.startServer(r.w.serverArgs()...)
	if err != nil {
		return err
	}
	r.srv = srv
	r.src = wire.NewQuerySource(r.seed, r.w.miss)
	if r.gen, err = r.newGen(); err != nil {
		return err
	}
	var done, failed int
	for done < r.w.warmup {
		p := r.gen.run(time.Millisecond, r.w.window, nil)
		done += p.attempted - p.failed
		if failed += p.failed; failed > r.w.warmup {
			return fmt.Errorf("%s: warm-up is not getting answers", r.w.name)
		}
	}
	r.setups = append(r.setups, time.Since(start).Seconds())
	return nil
}

// teardown drops the connection and stops the server.
func (r *runner) teardown() {
	if r.gen != nil {
		r.gen.close()
		r.gen = nil
	}
	if r.srv != nil {
		r.e.reap(r.srv.proc)
		r.srv = nil
	}
}

// setup is the first cold start; what it started stays up for the
// slices. Tool workloads that probe a server get a plain DoH server.
func (r *runner) setup() error {
	if err := r.coldStart(); err != nil {
		return err
	}
	if r.srv != nil {
		var err error
		if r.last, err = r.srv.scrape(); err != nil {
			return err
		}
	}
	if r.w.kind == "probe" {
		r.gen.close() // the tool dials its own connections
		r.gen = nil
	}
	return nil
}

// extraColdStart times one more set-up beside the running server: a
// second server on ports of its own, stopped as soon as it is warm. The
// set-ups of a run are spread over it this way, so that a disturbed
// stretch of the host cannot take all of them.
func (r *runner) extraColdStart() error {
	tmp := &runner{e: r.e, w: r.w, seed: r.seed}
	defer tmp.teardown()
	err := tmp.coldStart()
	r.setups = append(r.setups, tmp.setups...)
	return err
}

// tool builds a command for one of the repository's binaries; it runs on
// the harness's CPU, like everything else.
func (r *runner) tool(name string, env []string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(r.e.bin, name), args...)
	cmd.Env = append(os.Environ(), env...)
	return cmd
}

func (r *runner) note(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// runSlice measures one slice of d seconds (serving and probe workloads;
// a campaign-sim slice lasts as long as the tool takes).
func (r *runner) runSlice(d time.Duration) error {
	var s slice
	var err error
	if s.echo, err = r.e.settle(); err != nil {
		return err
	}
	switch {
	case r.w.serving():
		err = r.servingSlice(&s, d)
	case r.w.kind == "probe":
		err = r.probeSlice(&s, d)
	default:
		err = r.simSlice(&s)
	}
	r.slices = append(r.slices, s)
	return err
}

func (r *runner) servingSlice(s *slice, d time.Duration) error {
	latD := time.Duration(float64(d) * latencyShare)
	p := r.gen.run(latD, 1, &s.lat)
	s.attempted, s.failed = p.attempted, p.failed
	mid, err := r.srv.scrape()
	if err != nil {
		return err
	}
	s.latM.add(r.last, mid)

	cpu0, err := procCPU(r.srv.pid())
	if err != nil {
		return err
	}
	gen0, wall0 := selfCPU(), time.Now()
	p = r.gen.run(d-latD, r.w.window, &s.thr)
	s.wall, s.genCPU = time.Since(wall0), selfCPU()-gen0
	cpu1, err := procCPU(r.srv.pid())
	if err != nil {
		return err
	}
	s.srvCPU = cpu1 - cpu0
	s.ops = r.w.window
	s.done = p.attempted - p.failed
	s.attempted += p.attempted
	s.failed += p.failed
	if r.last, err = r.srv.scrape(); err != nil {
		return err
	}
	s.thrM.add(mid, r.last)
	r.note(r.gen.err())
	return nil
}

// probeRecord is the part of a dnsmeasure JSONL record the harness reads.
type probeRecord struct {
	TS    time.Time `json:"ts"` // when the record's round began
	Round int       `json:"round"`
	Kind  string    `json:"kind"`
	MS    float64   `json:"ms"`
	OK    bool      `json:"ok"`
	RCode string    `json:"rcode"`
	Error string    `json:"error"`
}

// probeSlice is one run of the measurement tool. Its latency rounds are
// the tool's own time per probe, in the order it made them; a throughput
// round is one of the tool's rounds, a probe of each domain, timed from
// the tool's own stamp on it to the stamp on the next (the last round of
// a run has no next).
func (r *runner) probeSlice(s *slice, d time.Duration) error {
	rounds := int(math.Round(d.Seconds() * probeRoundsPerSecond))
	if rounds < 1 {
		rounds = 1
	}
	out := filepath.Join(r.e.tmp, "probe.jsonl")
	cmd := r.tool("dnsmeasure", []string{"SSL_CERT_FILE=" + r.srv.caPath},
		"-mode", "live", "-resolvers", r.srv.dohURL, "-rounds", strconv.Itoa(rounds),
		"-interval", "1ns", "-summary=false", "-o", out)
	cpu0, err := procCPU(r.srv.pid())
	if err != nil {
		return err
	}
	gen0, wall0 := childrenCPU(), time.Now()
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("dnsmeasure: %w\n%s", err, msg)
	}
	s.wall, s.genCPU = time.Since(wall0), childrenCPU()-gen0
	cpu1, err := procCPU(r.srv.pid())
	if err != nil {
		return err
	}
	s.srvCPU = cpu1 - cpu0

	f, err := os.Open(out)
	if err != nil {
		return err
	}
	defer f.Close()
	began := make([]time.Time, rounds) // each round's stamp
	good := make([]int, rounds)        // and how many of its probes validated
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec probeRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("dnsmeasure output: %w", err)
		}
		if rec.Kind != "query" {
			continue // ICMP pings need privileges; the paper's metric is the query
		}
		s.attempted++
		if !rec.OK || rec.RCode != "NOERROR" || rec.Round < 0 || rec.Round >= rounds {
			s.failed++
			r.note(fmt.Errorf("probe: round=%d ok=%v rcode=%s error=%s", rec.Round, rec.OK, rec.RCode, rec.Error))
			continue
		}
		s.lat = append(s.lat, rec.MS*1e3)
		began[rec.Round] = rec.TS
		good[rec.Round]++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	s.ops = len(wire.Domains)
	for k := 0; k+1 < rounds; k++ {
		if took := began[k+1].Sub(began[k]); good[k] == s.ops && good[k+1] > 0 && took > 0 {
			s.thr = append(s.thr, float64(took)/1e3)
		}
	}
	if want := rounds * len(wire.Domains); s.attempted != want {
		r.note(fmt.Errorf("probe: %d query records, want %d", s.attempted, want))
		s.failed += want - s.attempted
		s.attempted = want
	}
	s.done = len(s.lat)

	now, err := r.srv.scrape()
	if err != nil {
		return err
	}
	s.latM.add(r.last, now)
	s.thrM.add(r.last, now)
	r.last = now
	return nil
}

func (r *runner) simSlice(s *slice) error {
	dir, err := os.MkdirTemp(r.e.tmp, "repro-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	seed := strconv.FormatUint(r.seed, 10)
	rounds := strconv.Itoa(simRounds)

	// Latency: the time to one artefact from a cold process (campaign plus
	// one table) — what someone regenerating a single table waits for.
	for i := 0; i < simLatencyOps; i++ {
		start := time.Now()
		msg, err := r.tool("repro", nil, "-out", dir, "-rounds", rounds, "-seed", seed, "-only", "table2").CombinedOutput()
		if err != nil {
			return fmt.Errorf("repro -only table2: %w\n%s", err, msg)
		}
		took := time.Since(start)
		s.attempted++
		if st, err := os.Stat(filepath.Join(dir, "table2.txt")); err != nil || st.Size() == 0 {
			s.failed++
			r.note(errors.New("repro -only table2 wrote no table"))
			continue
		}
		s.lat = append(s.lat, float64(took)/1e3)
	}

	gen0, wall0 := childrenCPU(), time.Now()
	msg, err := r.tool("repro", nil, "-out", dir, "-rounds", rounds, "-seed", seed).CombinedOutput()
	if err != nil {
		return fmt.Errorf("repro: %w\n%s", err, msg)
	}
	s.wall, s.genCPU = time.Since(wall0), childrenCPU()-gen0

	records, bad, sum, err := checkResults(filepath.Join(dir, "results.jsonl"), len(r.slices) == 0)
	if err != nil {
		return err
	}
	if len(r.slices) == 0 {
		r.simHash = sum
	} else if sum != r.simHash {
		// One seed must give one campaign: a differing file is wrong
		// whichever of the two is right.
		bad = records
		r.note(errors.New("repro: results.jsonl differs between runs of one seed"))
	}
	s.attempted += records
	s.failed += bad
	s.done = records - bad
	if bad == 0 {
		s.ops, s.thr = records, []float64{float64(s.wall) / 1e3}
	}

	checks, err := os.ReadFile(filepath.Join(dir, "shape-checks.txt"))
	if err != nil {
		return err
	}
	fails, passes := bytes.Count(checks, []byte("[FAIL]")), bytes.Count(checks, []byte("[PASS]"))
	if fails+passes == 0 {
		s.failed++
		r.note(errors.New("repro: shape-checks.txt holds no verdicts"))
	}
	r.shape = [2]int{fails, fails + passes}
	return nil
}

// simRecord is the part of a results.jsonl record that must be present.
type simRecord struct {
	TS       string `json:"ts"`
	Vantage  string `json:"vantage"`
	Resolver string `json:"resolver"`
	Kind     string `json:"kind"`
}

// checkResults counts the records of a results.jsonl, hashes the file,
// and — when parse is set — decodes every line and counts those missing
// a required field. Later slices of one seed are checked by hash alone.
func checkResults(path string, parse bool) (records, bad int, sum [sha256.Size]byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, sum, err
	}
	sum = sha256.Sum256(data)
	for _, line := range bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n")) {
		records++
		if !parse {
			continue
		}
		var rec simRecord
		if json.Unmarshal(line, &rec) != nil || rec.TS == "" || rec.Vantage == "" || rec.Resolver == "" ||
			(rec.Kind != "query" && rec.Kind != "ping") {
			bad++
		}
	}
	return records, bad, sum, nil
}
