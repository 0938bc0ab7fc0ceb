// Command benchmark is the repository's end-to-end benchmark: a black-box
// harness that builds cmd/dohserver, cmd/dnsmeasure and cmd/repro, pins
// them and itself to one CPU, and drives them over their flags and wire
// protocols. It imports nothing from the repository, so refactoring
// an internal API cannot break it. The traced per-layer run lives in
// ./layers. See README.md for the protocol and the metric glossary.
//
//	go run . [-seed N] [-seconds S]        every workload, result file, report
//	go run . -workload W -seed N -seconds S -trace 0|1   one workload, one JSON line
//	go run . -compare a.json b.json        verdict per workload × metric
//	go run . -selfcheck                    two full sets compared with each other
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const (
	fullSeconds  = 12                   // measuring seconds per workload
	coldStarts   = 9                    // timed set-ups per workload, spread over its slices
	simSetups    = 5                    // campaign-sim's set-up is a 5 ms process; time this many at once
	sentinelTime = 5 * time.Millisecond // one reading of the sentinel
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name      = flag.String("workload", "", "measure this one workload and print one JSON result line")
		seed      = flag.Uint64("seed", 1, "seed for name order, the miss-name stream and repro -seed")
		seconds   = flag.Float64("seconds", fullSeconds, "measuring time per workload")
		trace     = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		doCompare = flag.Bool("compare", false, "compare two result files given as arguments")
		selfcheck = flag.Bool("selfcheck", false, "run two full sets back to back and compare them")
		echo      = flag.Bool("echo", false, "internal: serve the UDP echo sentinel")
	)
	flag.Parse()
	switch {
	case *echo:
		return serveEcho()
	case *doCompare:
		if flag.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		a, err := readResult(flag.Arg(0))
		if err != nil {
			return err
		}
		b, err := readResult(flag.Arg(1))
		if err != nil {
			return err
		}
		if compare(os.Stdout, a, b) {
			return errors.New("at least one metric is worse than its bound allows")
		}
		return nil
	}
	if *seconds <= 0 || *seconds > 120 {
		return errors.New("-seconds out of range")
	}

	e, err := newEnv()
	if err != nil {
		return err
	}
	defer e.cleanup()
	if err := e.startSentinel(); err != nil {
		return err
	}
	defer e.saveState()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()

	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		return e.driverRun(w, *seed, *seconds, *trace != 0)
	}
	if *selfcheck {
		a, err := e.fullRun(*seed, *seconds, "a")
		if err != nil {
			return err
		}
		b, err := e.fullRun(*seed, *seconds, "b")
		if err != nil {
			return err
		}
		if compare(os.Stdout, a, b) {
			return errors.New("selfcheck: two runs of unchanged code disagree beyond a bound")
		}
		return nil
	}
	_, err = e.fullRun(*seed, *seconds, "")
	return err
}

// newEnv finds the checkout, builds the binaries into .bench_build and
// pins this process, and with it every child, to one CPU.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, bin: filepath.Join(root, ".bench_build", "bin")}
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return nil, err
	}
	build := func(dir string, pkgs ...string) error {
		cmd := exec.Command("go", append([]string{"build", "-o", e.bin + string(filepath.Separator)}, pkgs...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go build %v: %w\n%s", pkgs, err, out)
		}
		return nil
	}
	if err := build(root, "./cmd/dohserver", "./cmd/dnsmeasure", "./cmd/repro"); err != nil {
		return nil, err
	}
	if err := build(filepath.Join(root, "benchmark"), "./layers"); err != nil {
		return nil, err
	}
	if e.tmp, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-"); err != nil {
		return nil, err
	}
	// Everything measured shares one CPU at a time, to begin with the last
	// this process may use (the first takes most of a guest's interrupts):
	// the harness pins itself there once the builds are done and every
	// child inherits the mask. See README.md, "One CPU", for why not one
	// CPU a side.
	if e.cpus = allowedCPUs(); len(e.cpus) > 0 {
		e.cpu = e.cpus[len(e.cpus)-1]
		if err := pin(os.Getpid(), e.cpu); err != nil {
			return nil, fmt.Errorf("pinning: %w", err)
		}
		e.pinned = true
		runtime.GOMAXPROCS(1)
	}
	return e, nil
}

// findRoot walks up from the working directory to the checkout: the
// directory holding the encdns module and cmd/dohserver.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(mod), "module encdns\n") {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "dohserver")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside an encdns checkout (no go.mod for module encdns with cmd/dohserver above the working directory)")
		}
		dir = parent
	}
}

func (e *env) info() envInfo {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return envInfo{Go: runtime.Version(), Kernel: kernel, NProc: runtime.NumCPU(),
		Pinned: e.pinned, CPU: e.cpu, Loopback: true}
}

// sliceCount is how many slices fit into seconds; at least one.
func sliceCount(seconds float64) int {
	return int(math.Max(1, math.Round(seconds/sliceTime)))
}

// measure runs the given workloads: set-up for each, then their slices
// interleaved round-robin so a noisy stretch on the host lands on all of
// them.
func (e *env) measure(ws []workload, seed uint64, seconds float64) (map[string]workloadResult, error) {
	var runners []*runner
	defer func() {
		for _, r := range runners {
			r.teardown()
		}
	}()
	for _, w := range ws {
		r := &runner{e: e, w: w, seed: seed}
		runners = append(runners, r)
		if err := r.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
	}
	// The slices of the workloads take turns, so that a disturbed minute
	// of the host lands on all of them; the other set-ups of each are
	// spread evenly over its slices.
	n := sliceCount(seconds)
	d := time.Duration(seconds / float64(n) * float64(time.Second))
	for i := 0; i < n; i++ {
		for _, r := range runners {
			if err := r.runSlice(d); err != nil {
				return nil, fmt.Errorf("%s: slice %d: %w", r.w.name, i, err)
			}
			if (i+1)*(coldStarts-1)/n > i*(coldStarts-1)/n {
				if err := r.extraColdStart(); err != nil {
					return nil, fmt.Errorf("%s: set-up: %w", r.w.name, err)
				}
			}
		}
	}
	out := make(map[string]workloadResult)
	for _, r := range runners {
		out[r.w.name] = r.result()
	}
	return out, nil
}

// traced runs benchmark/layers on the server CPU and returns its rungs.
// An empty workload replays all six mixes.
func (e *env) traced(workload string, seed uint64, seconds float64) (map[string]map[string]float64, error) {
	// The traced run reports plain means, so it should at least start on
	// a quiet CPU.
	if _, err := e.settle(); err != nil {
		return nil, err
	}
	out := filepath.Join(e.root, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(e.bin, "layers"),
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-json", "-trace-out", filepath.Join(out, "trace.jsonl"))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	proc, err := e.spawn(cmd)
	if err != nil {
		return nil, err
	}
	<-proc.done
	e.reap(proc)
	if !cmd.ProcessState.Success() {
		return nil, fmt.Errorf("layers: %s", cmd.ProcessState)
	}
	var rungs map[string]map[string]float64
	if err := json.Unmarshal(stdout.Bytes(), &rungs); err != nil {
		return nil, fmt.Errorf("layers output: %w", err)
	}
	return rungs, nil
}

// driverRun is one invocation by the benchmark driver. With trace off
// the whole of seconds goes to the black-box measurement; with trace on
// it is split between a shorter black-box run (for the proc and /metrics
// rows) and the traced run.
func (e *env) driverRun(w workload, seed uint64, seconds float64, trace bool) error {
	if trace {
		seconds /= 2
	}
	results, err := e.measure([]workload{w}, seed, seconds)
	if err != nil {
		return err
	}
	res := results[w.name]
	if trace {
		rungs, err := e.traced(w.name, seed, seconds)
		if err != nil {
			return err
		}
		res.mergeLayers(w.name, rungs[w.name])
	}
	results[w.name] = res
	f := e.newResultFile(seed, seconds, results)
	printReport(os.Stderr, f)
	if _, err := e.writeResult(f, w.name); err != nil {
		return err
	}
	line, err := json.Marshal(driverResult(res, trace))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// fullRun measures every workload, adds the traced rungs, writes the
// result file and prints the report. It fails when any workload's
// fail_ratio exceeds its bound.
func (e *env) fullRun(seed uint64, seconds float64, tag string) (*resultFile, error) {
	start := time.Now()
	results, err := e.measure(workloads, seed, seconds)
	if err != nil {
		return nil, err
	}
	rungs, err := e.traced("", seed, seconds/2)
	if err != nil {
		return nil, err
	}
	for name, res := range results {
		res.mergeLayers(name, rungs[name])
		results[name] = res
	}
	f := e.newResultFile(seed, seconds, results)
	printReport(os.Stdout, f)
	path, err := e.writeResult(f, tag)
	if err != nil {
		return nil, err
	}
	summary, err := json.Marshal(struct {
		Result   string  `json:"result"`
		Seed     uint64  `json:"seed"`
		Pinned   bool    `json:"pinned"`
		Loopback bool    `json:"loopback"`
		WallS    float64 `json:"wall_s"`
		Claim    *string `json:"claim"`
	}{Result: path, Seed: seed, Pinned: e.pinned, Loopback: true, WallS: time.Since(start).Seconds()})
	if err != nil {
		return nil, err
	}
	fmt.Printf("\n%s\n", summary)

	for name, res := range results {
		if fr := ratio(float64(res.Failed), float64(res.Attempted)); fr > failRatio.bound {
			return f, fmt.Errorf("%s: fail_ratio %.4g exceeds %.4g (%s)", name, fr, failRatio.bound, res.FirstErr)
		}
	}
	return f, nil
}

func (e *env) newResultFile(seed uint64, seconds float64, results map[string]workloadResult) *resultFile {
	return &resultFile{Schema: schemaName, Commit: commit(e.root), Seed: seed, Seconds: seconds, Env: e.info(), Workloads: results}
}

// writeResult writes f to benchmark/out/<commit>-<seed>[-tag].json.
func (e *env) writeResult(f *resultFile, tag string) (string, error) {
	base := fmt.Sprintf("%s-%d", f.Commit, f.Seed)
	if tag != "" {
		base += "-" + tag
	}
	path := filepath.Join(e.root, "benchmark", "out", base+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	return path, writeJSON(path, f)
}

// commit names the tree measured: the short git hash, or "worktree" when
// the checkout is not a repository.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "worktree"
	}
	return strings.TrimSpace(string(out))
}
