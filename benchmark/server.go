package main

import (
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"encdns/benchmark/wire"
)

// env is what one harness process measures in: where the binaries and
// scratch files live, which CPU everything is pinned to, and the sentinel
// that picks it.
type env struct {
	root   string // repository checkout
	bin    string // built cmd/ binaries
	tmp    string // scratch directory, removed at exit
	pinned bool
	cpus   []int // the CPUs this process may use
	cpu    int   // the one of them the harness and all its children are on
	echo   *echoChild

	readings []float64     // the sentinel's reading before each slice and set-up of the run, µs
	moves    int           // times the sentinel sent everything to another CPU
	state    sentinelState // handed from run to run of this checkout
	mayWait  time.Duration // how long this run may still wait for a quiet CPU

	mu    sync.Mutex // guards procs: the signal handler cleans up too
	procs []*child   // everything started and not yet reaped
}

// child is a process the harness started; done closes once it has exited
// and been waited for.
type child struct {
	cmd  *exec.Cmd
	done chan struct{}
}

func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// spawn starts cmd, which inherits the harness's CPU, and tracks it.
func (e *env) spawn(cmd *exec.Cmd) (*child, error) {
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(c.done) }()
	e.mu.Lock()
	e.procs = append(e.procs, c)
	e.mu.Unlock()
	return c, nil
}

// reap stops c, if it is still running, and waits until it has ended.
func (e *env) reap(c *child) {
	if !c.exited() {
		_ = c.cmd.Process.Signal(syscall.SIGTERM)
	}
	select {
	case <-c.done:
	case <-time.After(3 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, p := range e.procs {
		if p == c {
			e.procs = append(e.procs[:i], e.procs[i+1:]...)
			break
		}
	}
}

// cleanup reaps every child still running and removes the scratch
// directory.
func (e *env) cleanup() {
	for {
		e.mu.Lock()
		if len(e.procs) == 0 {
			e.mu.Unlock()
			break
		}
		c := e.procs[0]
		e.mu.Unlock()
		e.reap(c)
	}
	if e.tmp != "" {
		_ = os.RemoveAll(e.tmp)
	}
}

// server is one running cmd/dohserver.
type server struct {
	proc             *child
	udpAddr, dotAddr string
	dohAddr, dohURL  string
	caPath           string
	tls              *tls.Config
	scraper          *http.Client
}

func (s *server) pid() int { return s.proc.cmd.Process.Pid }

// freePorts asks the kernel for n unused loopback ports. The listeners
// are held until all n are known, or the kernel may hand one out twice.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// startServer spawns dohserver with all three frontends on fresh
// loopback ports and returns once each of them has answered a query.
// Between freePorts letting a port go and the server binding it, the
// kernel may hand it to one of the harness's own outgoing connections;
// the server then dies at start-up, so a failed start is tried again on
// new ports.
func (e *env) startServer(extra ...string) (*server, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var s *server
		if s, err = e.startServerOnce(extra...); err == nil {
			return s, nil
		}
	}
	return nil, err
}

func (e *env) startServerOnce(extra ...string) (*server, error) {
	ports, err := freePorts(3)
	if err != nil {
		return nil, err
	}
	s := &server{
		udpAddr: fmt.Sprintf("127.0.0.1:%d", ports[0]),
		dotAddr: fmt.Sprintf("127.0.0.1:%d", ports[1]),
		dohAddr: fmt.Sprintf("127.0.0.1:%d", ports[2]),
	}
	s.dohURL = "https://" + s.dohAddr + "/dns-query"
	s.caPath = filepath.Join(e.tmp, fmt.Sprintf("ca-%d.pem", ports[0]))
	args := append([]string{"-do53", s.udpAddr, "-dot", s.dotAddr, "-doh", s.dohAddr, "-ca-out", s.caPath}, extra...)
	cmd := exec.Command(filepath.Join(e.bin, "dohserver"), args...)
	logf, err := os.Create(s.caPath + ".log")
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd.Stderr = logf
	if s.proc, err = e.spawn(cmd); err != nil {
		return nil, fmt.Errorf("starting dohserver: %w", err)
	}
	if err := s.waitReady(10 * time.Second); err != nil {
		e.reap(s.proc)
		log, _ := os.ReadFile(s.caPath + ".log")
		return nil, fmt.Errorf("dohserver not ready: %w\n%s", err, log)
	}
	return s, nil
}

// waitReady polls until the CA file is written and Do53/UDP, DoT and
// DoH have each answered one validated query, or the server has died.
func (s *server) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	var err error
	steps := []func() error{s.loadCA, s.probeUDP, s.probeDoT, s.probeDoH}
	for _, step := range steps {
		for {
			if err = step(); err == nil {
				break
			}
			if s.proc.exited() {
				return errors.New("the process exited")
			}
			if time.Now().After(deadline) {
				return err
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

func (s *server) loadCA() error {
	pem, err := os.ReadFile(s.caPath)
	if err != nil {
		return err
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return errors.New("CA file holds no certificate")
	}
	s.tls = &tls.Config{RootCAs: pool, ServerName: "127.0.0.1"}
	s.scraper = &http.Client{
		Transport: &http.Transport{TLSClientConfig: s.tls.Clone(), ForceAttemptHTTP2: true},
		Timeout:   5 * time.Second,
	}
	return nil
}

var probeExp = wire.Expectation{
	ID:       0x5eed,
	Question: append(wire.AppendName(nil, wire.Domains[0]), 0, wire.TypeA, 0, wire.ClassIN),
	RCode:    wire.RCodeNoError,
	Answers:  wire.KnownA[0],
}

func probeQuery() []byte { return wire.AppendQuery(nil, probeExp.ID, wire.Domains[0]) }

func (s *server) probeUDP() error {
	c, err := net.Dial("udp", s.udpAddr)
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := c.Write(probeQuery()); err != nil {
		return err
	}
	_ = c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 1500)
	n, err := c.Read(buf)
	if err != nil {
		return err
	}
	return wire.Validate(buf[:n], &probeExp)
}

func (s *server) probeDoT() error {
	d := &net.Dialer{Timeout: time.Second}
	c, err := tls.DialWithDialer(d, "tcp", s.dotAddr, s.tls)
	if err != nil {
		return err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(time.Second))
	q := probeQuery()
	if _, err := c.Write(append([]byte{byte(len(q) >> 8), byte(len(q))}, q...)); err != nil {
		return err
	}
	var hdr [2]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return err
	}
	resp := make([]byte, int(hdr[0])<<8|int(hdr[1]))
	if _, err := io.ReadFull(c, resp); err != nil {
		return err
	}
	return wire.Validate(resp, &probeExp)
}

func (s *server) probeDoH() error {
	resp, err := wire.PostDoH(s.scraper.Transport, s.dohURL, probeQuery(), nil)
	if err != nil {
		return err
	}
	return wire.Validate(resp, &probeExp)
}

// scrape fetches /metrics from the DoH port.
func (s *server) scrape() (scrape, error) {
	resp, err := s.scraper.Get("https://" + s.dohAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body), nil
}
