package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// echoChild is the host-noise sentinel: a bare UDP echo with no DNS code
// in it, running where the servers run. Both ends use blocking sockets
// through raw system calls: a round trip through the Go netpoller has
// moods of its own (12 µs, or 10 after some tens of milliseconds of
// continuous pinging), a round trip through two blocked threads has one.
type echoChild struct {
	proc *child
	fd   int
	buf  [64]byte
}

var loopback = [4]byte{127, 0, 0, 1}

// startSentinel starts the echo child, which cleanup stops with the other
// children, and reads what earlier runs handed on.
func (e *env) startSentinel() error {
	echo, err := e.startEcho()
	if err != nil {
		return err
	}
	e.echo = echo
	e.loadState()
	return nil
}

func (e *env) startEcho() (*echoChild, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// A pipe of our own, so that reading the child's first line does not
	// race the goroutine that waits for it.
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	cmd := exec.Command(self, "-echo")
	cmd.Stdout = w
	proc, err := e.spawn(cmd)
	w.Close()
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*echoChild, error) {
		e.reap(proc)
		return nil, fmt.Errorf("echo child: %w", err)
	}
	line, err := bufio.NewReader(r).ReadString('\n')
	if err != nil {
		return fail(err)
	}
	port, err := strconv.Atoi(strings.TrimSpace(line))
	if err != nil {
		return fail(err)
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM, 0)
	if err != nil {
		return fail(err)
	}
	// A lost datagram must not hang the harness.
	tv := syscall.NsecToTimeval(int64(lossTimeout))
	if err := syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv); err == nil {
		err = syscall.Connect(fd, &syscall.SockaddrInet4{Port: port, Addr: loopback})
	}
	if err != nil {
		syscall.Close(fd)
		return fail(err)
	}
	return &echoChild{proc: proc, fd: fd}, nil
}

// serveEcho is the child side of the sentinel: it prints its port and
// echoes until it is killed.
func serveEcho() error {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM, 0)
	if err != nil {
		return err
	}
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: loopback}); err != nil {
		return err
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		return err
	}
	fmt.Println(sa.(*syscall.SockaddrInet4).Port)
	buf := make([]byte, 2048)
	for {
		n, from, err := syscall.Recvfrom(fd, buf, 0)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return err
		}
		if err := syscall.Sendto(fd, buf[:n], 0, from); err != nil && err != syscall.EINTR {
			return err
		}
	}
}

// sample ping-pongs with the sentinel for sentinelTime and returns the
// median round trip in µs; 0 when the echo child is gone. A noisy sample
// is taken again, once, and the lower of the two stands: the reading is of
// the host, and the programs under test are not always done when their
// phase is — a server finishing a garbage collection takes a few
// milliseconds of the CPU, while a disturbed host stays disturbed.
func (e *env) sample() float64 {
	var r float64
	for try := 0; try < 2; try++ {
		rtts := e.echo.pingPong(sentinelTime)
		if len(rtts) == 0 {
			return 0
		}
		sort.Float64s(rtts)
		if med := percentile(rtts, 50); try == 0 || med < r {
			r = med
		}
		if q := e.quiet(); q == 0 || r <= noisyFactor*q {
			break
		}
	}
	return r
}

// moveTo takes the harness and every child it has running to cpu.
func (e *env) moveTo(cpu int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.procs {
		// A child that has just exited has no threads left to move.
		if err := pin(c.cmd.Process.Pid, cpu); err != nil && !c.exited() {
			return err
		}
	}
	e.cpu = cpu
	e.moves++
	return pin(os.Getpid(), cpu)
}

// settle takes the sentinel reading that precedes a slice or a set-up,
// picks the CPU for it and, if it must, waits. On the shared host this
// was written on a CPU can run everything 1.3 to 1.5 times slower for
// seconds or minutes, sometimes while the other does not. So when the
// reading is noisy, settle reads the other CPUs the harness may use in
// turn, taking everything along, and stays on the first that reads quiet.
// If none does, it goes round again for as long as the checkout has
// waiting time left (see sentinelState) — polling, not sleeping: a vCPU
// that went idle wakes up wherever its host has room — and then settles
// for the CPU that read lowest.
func (e *env) settle() (float64, error) {
	// The first reading of a run has no quiet level of its own to stand
	// against, so every CPU is read once.
	all := len(e.readings) == 0
	var start time.Time // of the waiting: the end of the first time round
	for ; ; all = false {
		best, bestCPU := e.sample(), e.cpu
		for i := 1; i < len(e.cpus) && (all || best > noisyFactor*e.quiet()); i++ {
			next := e.cpus[(indexOf(e.cpus, e.cpu)+1)%len(e.cpus)]
			if err := e.moveTo(next); err != nil {
				return 0, err
			}
			if r := e.sample(); r < best {
				best, bestCPU = r, next
			}
		}
		var waited time.Duration
		if start.IsZero() {
			start = time.Now()
		} else {
			waited = time.Since(start)
		}
		if q := e.quiet(); q == 0 || best <= noisyFactor*q || waited >= e.mayWait {
			if bestCPU != e.cpu {
				if err := e.moveTo(bestCPU); err != nil {
					return 0, err
				}
			}
			e.mayWait -= waited
			e.state.WaitedS += waited.Seconds()
			e.readings = append(e.readings, best)
			return best, nil
		}
	}
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return 0
}

// quiet is the sentinel's reading of the host at its quiet level: the
// lower decile of the run's readings so far — not the lowest, which now
// and then is a lucky one well under the level the host settles at — or
// the level an earlier run in this checkout saw, if that is lower: a run
// can meet the host disturbed from its first second to its last.
func (e *env) quiet() float64 {
	if len(e.readings) == 0 {
		return e.state.QuietUS
	}
	sorted := append([]float64(nil), e.readings...)
	sort.Float64s(sorted)
	q := percentile(sorted, 10)
	if e.state.QuietUS > 0 && e.state.QuietUS < q {
		return e.state.QuietUS
	}
	return q
}

// sentinelState is what the runs of one checkout hand on to each other,
// in .bench_build/sentinel.json: the host's quiet level, which a run that
// never sees it cannot know, and how long they have waited for it between
// them. A run may wait up to maxWaitRun for a quiet CPU, all the runs of
// a checkout together up to maxWaitAll: a benchmark that is run seventy
// times in half an hour must not add more than a few minutes to it.
type sentinelState struct {
	QuietUS float64 `json:"quiet_us"`
	WaitedS float64 `json:"waited_s"`
}

const (
	maxWaitRun = 60 * time.Second
	maxWaitAll = 400 * time.Second
)

func (e *env) stateFile() string { return filepath.Join(e.root, ".bench_build", "sentinel.json") }

// loadState reads the checkout's sentinel state and sets how long this
// run may wait.
func (e *env) loadState() {
	if b, err := os.ReadFile(e.stateFile()); err == nil {
		_ = json.Unmarshal(b, &e.state)
	}
	left := maxWaitAll - time.Duration(e.state.WaitedS*float64(time.Second))
	e.mayWait = max(0, min(maxWaitRun, left))
}

// saveState hands the run's quiet level on, if it is the lowest yet.
func (e *env) saveState() {
	e.state.QuietUS = e.quiet()
	if b, err := json.Marshal(e.state); err == nil {
		_ = os.WriteFile(e.stateFile(), append(b, '\n'), 0o644)
	}
}

// pingPong ping-pongs for d and returns the round trips in µs.
func (c *echoChild) pingPong(d time.Duration) []float64 {
	var rtts []float64
	buf := c.buf[:]
	for end := time.Now().Add(d); ; {
		start := time.Now()
		if !start.Before(end) {
			break
		}
		if _, err := syscall.Write(c.fd, buf[:32]); err != nil {
			continue
		}
		if _, err := syscall.Read(c.fd, buf); err != nil {
			continue
		}
		rtts = append(rtts, float64(time.Since(start))/1e3)
	}
	return rtts
}
