package main

import (
	"bufio"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"encdns/benchmark/wire"
)

// lossTimeout is how long a query may stay unanswered before it, and the
// round it is in, count as failed.
const lossTimeout = 200 * time.Millisecond

// phase is the outcome of one closed-loop phase.
type phase struct {
	attempted int // queries sent
	failed    int // errors, timeouts and wrong answers among them
}

// generator drives one connection of one frontend in a closed loop of
// rounds: a round sends window queries at once and is over when every one
// of them is answered or given up on; the next starts at once. With
// window 1 that is a ping-pong and a round's time a query's latency. The
// time of every round whose answers all validated is appended to rounds,
// in µs and in order, so that the caller can cut the phase into stretches
// of a few milliseconds.
type generator interface {
	run(d time.Duration, window int, rounds *[]float64) phase
	err() error // the first failure seen, for the report
	close()
}

// firstErr remembers the first failure a generator saw.
type firstErr struct{ err error }

func (f *firstErr) note(err error) {
	if f.err == nil {
		f.err = err
	}
}

// udpGen is a connected Do53/UDP socket. Answers arrive in any order, so
// a round's queries carry consecutive IDs and are found by them.
type udpGen struct {
	conn   net.Conn
	src    *wire.QuerySource
	nextID uint16
	exp    []wire.Expectation
	done   []bool
	wbuf   []byte
	rbuf   []byte
	first  firstErr
}

func newUDPGen(addr string, src *wire.QuerySource) (*udpGen, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	return &udpGen{conn: conn, src: src, rbuf: make([]byte, 4096)}, nil
}

func (g *udpGen) close()     { g.conn.Close() }
func (g *udpGen) err() error { return g.first.err }

func (g *udpGen) run(d time.Duration, window int, rounds *[]float64) phase {
	var p phase
	for len(g.exp) < window {
		g.exp = append(g.exp, wire.Expectation{})
		g.done = append(g.done, false)
	}
	for deadline := time.Now().Add(d); ; {
		start := time.Now()
		if !start.Before(deadline) {
			return p
		}
		base := g.nextID + 1
		sent := 0
		for ; sent < window; sent++ {
			g.nextID++
			g.wbuf = g.src.Next(g.wbuf[:0], g.nextID, &g.exp[sent])
			g.done[sent] = false
			p.attempted++
			if _, err := g.conn.Write(g.wbuf); err != nil {
				g.first.note(err)
				p.failed++
				time.Sleep(time.Millisecond) // nothing listening: do not spin
				break
			}
		}
		// One deadline for the round: a lost datagram costs the round the
		// loss timeout and fails, and the next round starts with a full
		// window again.
		_ = g.conn.SetReadDeadline(start.Add(lossTimeout))
		ok := sent == window
		for left := sent; left > 0; {
			n, err := g.conn.Read(g.rbuf)
			if err != nil {
				if !errors.Is(err, os.ErrDeadlineExceeded) {
					time.Sleep(time.Millisecond) // ICMP refusal: do not spin
					if time.Since(start) < lossTimeout {
						continue
					}
				}
				g.first.note(errors.New("udp: no answer within the loss timeout"))
				p.failed += left
				ok = false
				break
			}
			if n < 2 {
				continue
			}
			i := int(uint16(g.rbuf[0])<<8 | uint16(g.rbuf[1]) - base)
			if i >= sent || g.done[i] {
				continue // answer to a query of a round already given up on
			}
			g.done[i] = true
			left--
			if err := wire.Validate(g.rbuf[:n], &g.exp[i]); err != nil {
				g.first.note(err)
				p.failed++
				ok = false
			}
		}
		if ok && rounds != nil {
			*rounds = append(*rounds, float64(time.Since(start))/1e3)
		}
	}
}

// dotGen is one DoT connection. The server answers a stream in order, so
// a round's answers are checked against its queries in turn.
type dotGen struct {
	addr   string
	tls    *tls.Config
	conn   *tls.Conn
	br     *bufio.Reader
	src    *wire.QuerySource
	nextID uint16
	exp    []wire.Expectation
	wbuf   []byte
	rbuf   []byte
	first  firstErr
}

func newDoTGen(addr string, cfg *tls.Config, src *wire.QuerySource) (*dotGen, error) {
	g := &dotGen{addr: addr, tls: cfg, src: src, rbuf: make([]byte, 4096)}
	return g, g.dial()
}

func (g *dotGen) dial() error {
	conn, err := tls.DialWithDialer(&net.Dialer{Timeout: time.Second}, "tcp", g.addr, g.tls)
	if err != nil {
		return err
	}
	g.conn, g.br = conn, bufio.NewReaderSize(conn, 32*1024)
	return nil
}

func (g *dotGen) close() {
	if g.conn != nil {
		g.conn.Close()
	}
}

func (g *dotGen) err() error { return g.first.err }

// readFrame reads one length-prefixed message.
func (g *dotGen) readFrame() ([]byte, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(g.br, hdr[:]); err != nil {
		return nil, err
	}
	n := int(hdr[0])<<8 | int(hdr[1])
	if n > len(g.rbuf) {
		return nil, fmt.Errorf("dot: %d-byte frame", n)
	}
	_, err := io.ReadFull(g.br, g.rbuf[:n])
	return g.rbuf[:n], err
}

// round sends window queries in one write, so that they share a TLS
// record as pipelined queries would, and reads their answers. An error
// on the stream fails what is still outstanding.
func (g *dotGen) round(window int, p *phase) (ok bool, err error) {
	g.wbuf = g.wbuf[:0]
	for i := 0; i < window; i++ {
		g.nextID++
		at := len(g.wbuf)
		g.wbuf = g.src.Next(append(g.wbuf, 0, 0), g.nextID, &g.exp[i])
		n := len(g.wbuf) - at - 2
		g.wbuf[at], g.wbuf[at+1] = byte(n>>8), byte(n)
	}
	p.attempted += window
	_ = g.conn.SetDeadline(time.Now().Add(lossTimeout))
	if _, err := g.conn.Write(g.wbuf); err != nil {
		p.failed += window
		return false, err
	}
	ok = true
	for i := 0; i < window; i++ {
		resp, err := g.readFrame()
		if err != nil {
			p.failed += window - i
			return false, err
		}
		if err := wire.Validate(resp, &g.exp[i]); err != nil {
			g.first.note(err)
			p.failed++
			ok = false
		}
	}
	return ok, nil
}

func (g *dotGen) run(d time.Duration, window int, rounds *[]float64) phase {
	var p phase
	for len(g.exp) < window {
		g.exp = append(g.exp, wire.Expectation{})
	}
	for deadline := time.Now().Add(d); ; {
		start := time.Now()
		if !start.Before(deadline) {
			return p
		}
		if g.conn == nil {
			// A stream that erred cannot be resynchronised: reconnect.
			if err := g.dial(); err != nil {
				g.first.note(err)
				p.attempted++
				p.failed++
				time.Sleep(10 * time.Millisecond)
				continue
			}
			start = time.Now()
		}
		ok, err := g.round(window, &p)
		if err != nil {
			g.first.note(err)
			g.conn.Close()
			g.conn = nil
			continue
		}
		if ok && rounds != nil {
			*rounds = append(*rounds, float64(time.Since(start))/1e3)
		}
	}
}

// dohGen is one HTTP/2 connection; a round is window concurrent streams,
// one POST each.
type dohGen struct {
	rt     *http.Transport
	url    string
	src    *wire.QuerySource
	nextID uint16
	lanes  []dohLane
	first  firstErr
}

// dohLane is what one stream of a round owns.
type dohLane struct {
	exp        wire.Expectation
	qbuf, rbuf []byte
	err        error
}

func newDoHGen(url string, cfg *tls.Config, src *wire.QuerySource) *dohGen {
	return &dohGen{
		url: url,
		src: src,
		rt:  &http.Transport{TLSClientConfig: cfg.Clone(), ForceAttemptHTTP2: true, ResponseHeaderTimeout: 2 * time.Second},
	}
}

func (g *dohGen) close()     { g.rt.CloseIdleConnections() }
func (g *dohGen) err() error { return g.first.err }

func (g *dohGen) post(l *dohLane) {
	resp, err := wire.PostDoH(g.rt, g.url, l.qbuf, l.rbuf)
	if err == nil {
		l.rbuf = resp
		err = wire.Validate(resp, &l.exp)
	}
	l.err = err
}

func (g *dohGen) run(d time.Duration, window int, rounds *[]float64) phase {
	var p phase
	for len(g.lanes) < window {
		g.lanes = append(g.lanes, dohLane{})
	}
	lanes := g.lanes[:window]
	for deadline := time.Now().Add(d); ; {
		start := time.Now()
		if !start.Before(deadline) {
			return p
		}
		for i := range lanes {
			g.nextID++
			lanes[i].qbuf = g.src.Next(lanes[i].qbuf[:0], g.nextID, &lanes[i].exp)
		}
		p.attempted += window
		if window == 1 {
			g.post(&lanes[0])
		} else {
			var wg sync.WaitGroup
			for i := range lanes {
				wg.Add(1)
				go func() { defer wg.Done(); g.post(&lanes[i]) }()
			}
			wg.Wait()
		}
		ok := true
		for i := range lanes {
			if lanes[i].err != nil {
				g.first.note(lanes[i].err)
				p.failed++
				ok = false
			}
		}
		if ok && rounds != nil {
			*rounds = append(*rounds, float64(time.Since(start))/1e3)
		}
	}
}
