package serve_test

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"encdns/internal/cluster"
	"encdns/internal/dataset"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/doh"
	"encdns/internal/keyhash"
	"encdns/internal/obs"
	"encdns/internal/serve"
	"encdns/internal/transport"
)

// start starts cfg and shuts it down when the test ends.
func start(t *testing.T, cfg serve.Config) *serve.Stack {
	t.Helper()
	st, err := serve.Start(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Shutdown)
	return st
}

// freeAddr reserves a loopback port free for both UDP and TCP, for a
// cluster node, whose ID is its Do53 address as written in its Config.
func freeAddr(t *testing.T) string {
	t.Helper()
	for range 10 {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := pc.LocalAddr().String()
		ln, err := net.Listen("tcp", addr)
		pc.Close()
		if err == nil {
			ln.Close()
			return addr
		}
	}
	t.Fatal("no loopback port free for both UDP and TCP")
	return ""
}

func counter(name string, labels ...string) *obs.Counter {
	return obs.Default().Counter(name, "", labels...)
}

// question is name's question section entry, type A, of class qclass.
func question(name string, qclass uint16) []byte {
	var b []byte
	for _, label := range strings.Split(strings.TrimSuffix(name, "."), ".") {
		b = append(append(b, byte(len(label))), label...)
	}
	return binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(append(b, 0), uint16(dnswire.TypeA)), qclass)
}

// query is a raw DNS message: a header with id, flags and the counts, then
// the questions and additional records as given.
func query(id, flags, qdcount, arcount uint16, sections ...[]byte) []byte {
	b := make([]byte, 12)
	binary.BigEndian.PutUint16(b[0:], id)
	binary.BigEndian.PutUint16(b[2:], flags)
	binary.BigEndian.PutUint16(b[4:], qdcount)
	binary.BigEndian.PutUint16(b[10:], arcount)
	return append(b, bytes.Join(sections, nil)...)
}

// opt is an OPT record advertising 1232 octets with TTL ttl (extended
// RCODE, version, flags).
func opt(ttl uint32) []byte {
	b := []byte{0, 0, 41, 0x04, 0xd0}
	return append(binary.BigEndian.AppendUint32(b, ttl), 0, 0)
}

// udpClient is a connected UDP socket to addr with a read deadline per ask.
type udpClient struct {
	t    *testing.T
	conn net.Conn
}

func dialUDP(t *testing.T, addr string) *udpClient {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &udpClient{t, conn}
}

func (c *udpClient) send(msg []byte) {
	c.t.Helper()
	if _, err := c.conn.Write(msg); err != nil {
		c.t.Fatal(err)
	}
}

// recv returns the next datagram, or nil when none comes within wait.
func (c *udpClient) recv(wait time.Duration) []byte {
	c.t.Helper()
	_ = c.conn.SetReadDeadline(time.Now().Add(wait))
	buf := make([]byte, 65535)
	n, err := c.conn.Read(buf)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return nil
		}
		c.t.Fatal(err)
	}
	return buf[:n]
}

// ask sends msg and wants a reply within 5 seconds.
func (c *udpClient) ask(msg []byte) []byte {
	c.t.Helper()
	c.send(msg)
	r := c.recv(5 * time.Second)
	if r == nil {
		c.t.Fatalf("no reply to %x", msg)
	}
	return r
}

// header is a reply's ID, flags and four counts.
func header(r []byte) (id, flags, qd, an, ns, ar uint16) {
	h := func(i int) uint16 { return binary.BigEndian.Uint16(r[2*i:]) }
	return h(0), h(1), h(2), h(3), h(4), h(5)
}

// probe asks each endpoint for the paper's three names, rounds times,
// with the exchange dnsmeasure -mode live times (a fresh query through a
// transport pool), and returns how many queries were asked and how many
// did not come back NOERROR. It calls the pool, not live.Prober, so this
// test binary links no measurement engine: see
// TestMetricsCarryNoMeasurementSeries.
func probe(t *testing.T, tlsCfg *tls.Config, rounds int, endpoints ...string) (asked, bad int) {
	t.Helper()
	pool := transport.NewPool(transport.Options{TLS: tlsCfg})
	defer pool.Close()
	ctx := context.Background()
	for range rounds {
		for _, ep := range endpoints {
			for _, name := range dataset.Domains {
				resp, err := pool.Exchange(ctx, dnswire.NewQuery(dns53.NewID(), name, dnswire.TypeA), ep)
				asked++
				if err == nil && resp.Header.RCode == dnswire.RCodeSuccess {
					continue
				}
				bad++
				if bad <= 3 && err != nil {
					t.Logf("%s %s: %v", ep, name, err)
				} else if bad <= 3 {
					t.Logf("%s %s: rcode %v", ep, name, resp.Header.RCode)
				}
			}
		}
	}
	return asked, bad
}

// TestUDPBurstsAnswerEveryQuery: 2 000 queries over the paper's three
// names, 32 in flight a round, at the stack's Do53/UDP. Each answer
// carries its query's ID and question, NOERROR and at least one record,
// however the kernel cut the trains; on a build with the batched path,
// some answers leave in GSO trains.
func TestUDPBurstsAnswerEveryQuery(t *testing.T) {
	st := start(t, serve.Config{Do53: "127.0.0.1:0", Cache: 4096})
	segments := counter("udpbatch_write_gso_segments_total")
	before := segments.Value()
	c := dialUDP(t, st.UDP)
	names := [][]byte{question("google.com", 1), question("wikipedia.com", 1), question("amazon.com", 1)}
	const total, window = 2000, 32
	for base := 0; base < total; base += window {
		ids := map[uint16]bool{}
		for i := base; i < base+window; i++ {
			ids[uint16(i)] = true
			c.send(query(uint16(i), 0x0100, 1, 0, names[i%3]))
		}
		for len(ids) > 0 {
			m := c.recv(5 * time.Second)
			if m == nil {
				t.Fatalf("round at %d: %d answers missing", base, len(ids))
			}
			id, flags, qd, an, _, _ := header(m)
			q := names[int(id)%3]
			if !ids[id] || flags&0x800F != 0x8000 || qd != 1 || an == 0 || !bytes.HasPrefix(m[12:], q) {
				t.Fatalf("answer %d: flags %#x, %d questions, %d answers, question %x", id, flags, qd, an, m[12:])
			}
			delete(ids, id)
		}
	}
	if gsoExpected && segments.Value() == before {
		t.Error("udpbatch_write_gso_segments_total did not move: no answer left in a GSO train")
	}
}

// TestForwardMode: a forwarding stack in front of a recursive one, each
// of its misses one upstream exchange over Do53, and the answer rules its
// Do53/UDP frontend applies before the cache. The subtests run in order
// on the same two stacks: the probe leaves the paper's names cached.
func TestForwardMode(t *testing.T) {
	upstream := start(t, serve.Config{Do53: "127.0.0.1:0", Cache: 4096})
	fwd := start(t, serve.Config{Do53: "127.0.0.1:0", DoH: "127.0.0.1:0", Forward: upstream.UDP, Cache: 4096})
	exchanges := counter("transport_exchanges_total", "scheme", "udp")
	c := dialUDP(t, fwd.UDP)

	t.Run("live DoH probe", func(t *testing.T) {
		before := exchanges.Value()
		if asked, bad := probe(t, fwd.CA.ClientConfig("127.0.0.1"), 20, "https://"+fwd.DoH+doh.DefaultPath); asked != 60 || bad != 0 {
			t.Fatalf("%d of %d queries not NOERROR", bad, asked)
		}
		if exchanges.Value() == before {
			t.Error("the forwarder's misses did not leave through the transport layer")
		}
	})
	t.Run("CNAME chain cached whole", func(t *testing.T) {
		before := exchanges.Value()
		for i := range uint16(5) {
			id, flags, _, an, _, _ := header(c.ask(query(i, 0x0100, 1, 0, question("www.amazon.com", 1))))
			if id != i || flags&0xF != 0 || an < 2 {
				t.Fatalf("ask %d: ID %d, flags %#x, %d answers", i, id, flags, an)
			}
		}
		if grew := exchanges.Value() - before; grew != 1 {
			t.Errorf("5 asks for www.amazon.com A took %d upstream exchanges, want 1", grew)
		}
	})
	t.Run("question-less query FORMERR", func(t *testing.T) {
		before := exchanges.Value()
		if id, flags, _, _, _, _ := header(c.ask(query(0x1234, 0x0100, 0, 0))); id != 0x1234 || flags&0x8000 == 0 || flags&0xF != 1 {
			t.Errorf("ID %#x, flags %#x, want FORMERR", id, flags)
		}
		if exchanges.Value() != before {
			t.Error("a query without a question went upstream")
		}
	})
	t.Run("QR=1 dropped", func(t *testing.T) {
		malformed := counter("dns53_server_malformed_total")
		before := malformed.Value()
		c.send(query(0x2345, 0x8100, 1, 0, question("google.com", 1)))
		if r := c.recv(500 * time.Millisecond); r != nil {
			t.Fatalf("a response was answered: %x", r)
		}
		if malformed.Value() == before {
			t.Error("dns53_server_malformed_total did not move")
		}
	})
	t.Run("opcode 5 NOTIMP", func(t *testing.T) {
		id, flags, _, _, _, _ := header(c.ask(query(0x3456, 0x2900, 1, 0, question("google.com", 1))))
		if id != 0x3456 || flags&0x8000 == 0 || flags>>11&0xF != 5 || flags&0xF != 4 {
			t.Errorf("ID %#x, flags %#x, want NOTIMP with opcode 5 echoed", id, flags)
		}
	})
	t.Run("64 never-seen names at once", func(t *testing.T) {
		for i := range uint16(64) {
			c.send(query(0x4000+i, 0x0100, 1, 0, question(fmt.Sprintf("burst%02d.google.com", i), 1)))
		}
		got := map[uint16]bool{}
		for len(got) < 64 {
			r := c.recv(5 * time.Second)
			if r == nil {
				t.Fatalf("%d of 64 answered", len(got))
			}
			if id, _, _, _, _, _ := header(r); id >= 0x4000 && id < 0x4040 {
				got[id] = true
			} else {
				t.Fatalf("stray answer %#x", id)
			}
		}
	})
	t.Run("EDNS query gets one OPT", func(t *testing.T) {
		r := c.ask(query(0x5001, 0x0100, 1, 1, question("google.com", 1), opt(0)))
		if id, _, _, _, _, ar := header(r); id != 0x5001 || ar != 1 || !bytes.Equal(r[len(r)-11:len(r)-8], []byte{0, 0, 41}) {
			t.Errorf("ID %#x, ARCOUNT %d, tail %x, want one OPT last", id, ar, r[len(r)-11:])
		}
	})
	t.Run("CH class REFUSED", func(t *testing.T) {
		if id, flags, _, _, _, _ := header(c.ask(query(0x5002, 0x0100, 1, 0, question("google.com", 3)))); id != 0x5002 || flags&0xF != 5 {
			t.Errorf("ID %#x, flags %#x, want REFUSED", id, flags)
		}
	})
	t.Run("two questions FORMERR", func(t *testing.T) {
		r := c.ask(query(0x5003, 0x0100, 2, 0, question("google.com", 1), question("amazon.com", 1)))
		if id, flags, _, _, _, _ := header(r); id != 0x5003 || flags&0xF != 1 {
			t.Errorf("ID %#x, flags %#x, want FORMERR", id, flags)
		}
	})
	t.Run("EDNS version 1 BADVERS", func(t *testing.T) {
		// google.com is cached by the probe; badvers.google.com never is.
		for id, name := range map[uint16]string{0x5004: "google.com", 0x5005: "badvers.google.com"} {
			r := c.ask(query(id, 0x0100, 1, 1, question(name, 1), opt(1<<16)))
			got, flags, _, an, _, ar := header(r)
			tail := r[len(r)-11:]
			if got != id || flags&0xF != 0 || an != 0 || ar != 1 || !bytes.Equal(tail[:3], []byte{0, 0, 41}) || tail[5] != 1 || tail[6] != 0 {
				t.Errorf("%s: ID %#x, flags %#x, %d answers, ARCOUNT %d, OPT %x; want BADVERS in a version-0 OPT", name, got, flags, an, ar, tail)
			}
		}
	})
}

// TestClusterSurvivesAMemberShutDown: three forward-mode nodes over one
// recursive upstream answer the paper's names whichever member is asked,
// forwarding the keys they do not own; with one of them shut down, the
// two left keep answering.
func TestClusterSurvivesAMemberShutDown(t *testing.T) {
	upstream := start(t, serve.Config{Do53: "127.0.0.1:0", Cache: 4096})
	addrs := []string{freeAddr(t), freeAddr(t), freeAddr(t)}
	var nodes []*serve.Stack
	var endpoints []string
	for i, self := range addrs {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, "udp://"+a)
			}
		}
		nodes = append(nodes, start(t, serve.Config{Do53: self, Forward: upstream.UDP, Cache: 4096,
			Peers: strings.Join(peers, ","), ClusterID: "ci"}))
		endpoints = append(endpoints, "udp://"+self)
	}
	forwarded := func() (n uint64) {
		for _, ep := range endpoints {
			n += counter("cluster_forwards_total", "peer", ep).Value()
		}
		return n
	}
	before := forwarded()
	if asked, bad := probe(t, nil, 40, endpoints...); float64(bad) >= 0.01*float64(asked) {
		t.Fatalf("warm: %d of %d queries failed, want under 1%%", bad, asked)
	}
	if forwarded() == before {
		t.Error("no member forwarded a query to its owner")
	}
	nodes[0].Shutdown()
	if asked, bad := probe(t, nil, 40, endpoints[1:]...); float64(bad) >= 0.05*float64(asked) {
		t.Fatalf("one member down: %d of %d queries failed, want under 5%%", bad, asked)
	}
}

// TestDoHServesHTTP2ThroughTheBurstLoop: the DoH listener hands HTTP/2
// connections to the burst loop, which answers wire-format queries in
// line, and keeps HTTP/1.1 on net/http; /metrics rides the same listener.
func TestDoHServesHTTP2ThroughTheBurstLoop(t *testing.T) {
	st := start(t, serve.Config{DoH: "127.0.0.1:0", Cache: 4096})
	inline := counter("doh_h2_requests_total", "path", "inline")
	wire := query(0, 0x0100, 1, 0, question("google.com", 1))
	post := func(client *http.Client, proto int) {
		t.Helper()
		resp, err := client.Post("https://"+st.DoH+doh.DefaultPath, doh.ContentType, bytes.NewReader(wire))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.ProtoMajor != proto || len(body) <= len(wire) {
			t.Fatalf("HTTP/%d.%d %s, %d octets", resp.ProtoMajor, resp.ProtoMinor, resp.Status, len(body))
		}
	}
	h2 := &http.Client{Transport: &http.Transport{TLSClientConfig: st.CA.ClientConfig("127.0.0.1"), ForceAttemptHTTP2: true}}
	h1 := &http.Client{Transport: &http.Transport{TLSClientConfig: st.CA.ClientConfig("127.0.0.1"),
		TLSNextProto: map[string]func(string, *tls.Conn) http.RoundTripper{}}}
	defer h2.CloseIdleConnections()
	defer h1.CloseIdleConnections()
	before := inline.Value()
	post(h2, 2)
	if inline.Value() == before {
		t.Error("an HTTP/2 POST was not answered by the burst loop")
	}
	post(h1, 1)
	resp, err := h2.Get("https://" + st.DoH + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("/metrics: %s, %s", resp.Status, resp.Header.Get("Content-Type"))
	}
}

// TestMetricsCarryNoMeasurementSeries: a stack's /metrics shows the
// serving side only. The measurement engine's campaign_* series and the
// watchtower's monitor_* series register when their packages load, so
// one of theirs here means internal/core or internal/monitor is linked
// into what serves: by the stack, or by a test file of this package.
func TestMetricsCarryNoMeasurementSeries(t *testing.T) {
	st := start(t, serve.Config{DoH: "127.0.0.1:0", Cache: 4096})
	client := &http.Client{Transport: &http.Transport{TLSClientConfig: st.CA.ClientConfig("127.0.0.1")}}
	defer client.CloseIdleConnections()
	resp, err := client.Get("https://" + st.DoH + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "\nresolver_cache_entries ") {
		t.Fatalf("/metrics: %s, %v, no resolver_cache_entries in %d octets", resp.Status, err, len(body))
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "campaign_") || strings.HasPrefix(line, "monitor_") {
			t.Errorf("/metrics carries a measurement series: %s", line)
		}
	}
}

// TestStackAcceptsHybridGroup: the server side keeps Go's default groups,
// so a client that offers only the hybrid X25519MLKEM768 still completes
// its handshakes with the stack's DoT and DoH, full and resumed.
func TestStackAcceptsHybridGroup(t *testing.T) {
	st := start(t, serve.Config{DoT: "127.0.0.1:0", DoH: "127.0.0.1:0", Cache: 4096})
	cfg := st.CA.ClientConfig("127.0.0.1")
	cfg.CurvePreferences = []tls.CurveID{tls.X25519MLKEM768}
	if asked, bad := probe(t, cfg, 2, "tls://"+st.DoT, "https://"+st.DoH+doh.DefaultPath); bad != 0 {
		t.Errorf("%d of %d queries failed", bad, asked)
	}
}

// TestShutdownDrainsBeforeClosingPeers: a query in flight on a peer
// forward when Shutdown begins holds the drain until it ends, and the peer
// transport closes only after the node has stopped probing. A peer that
// answers probes but never a forward keeps the forward in flight for the
// node's 2 s forward timeout, a second probe interval and more: had the
// peer pool closed first, a probe in that window would dial the peer
// again, and the pool's endpoint would outlive Shutdown.
func TestShutdownDrainsBeforeClosingPeers(t *testing.T) {
	peer, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	go func() {
		buf := make([]byte, 65535)
		for {
			n, from, err := peer.ReadFrom(buf)
			if err != nil {
				return
			}
			q, err := dnswire.Unpack(buf[:n])
			if err != nil || q.Question0().Name != cluster.ProbeName {
				continue
			}
			if wire, err := q.Reply().Pack(); err == nil {
				_, _ = peer.WriteTo(wire, from)
			}
		}
	}()
	endpoints := obs.Default().Gauge("transport_pool_endpoints", "")
	baseline := endpoints.Value()
	self, peerID := freeAddr(t), "udp://"+peer.LocalAddr().String()
	st, err := serve.Start(context.Background(), serve.Config{Do53: self, Cache: 4096, Peers: peerID, ClusterID: "ci"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Shutdown()

	// A name the silent peer owns on the two-member ring.
	selfID, _ := cluster.PeerID(self)
	ring := cluster.NewRing([]string{selfID, peerID})
	var name string
	for i := 0; name == ""; i++ {
		n := fmt.Sprintf("owned%d.google.com.", i)
		if owner, _ := ring.Owner(keyhash.Key(n, uint16(dnswire.TypeA))); owner == peerID {
			name = n
		}
	}
	forwards := counter("cluster_forwards_total", "peer", peerID)
	before := forwards.Value()
	c := dialUDP(t, st.UDP)
	c.send(query(1, 0x0100, 1, 0, question(name, 1)))
	for deadline := time.Now().Add(5 * time.Second); forwards.Value() == before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the query was not forwarded to its owner")
		}
	}
	began := time.Now()
	st.Shutdown()
	if took := time.Since(began); took < time.Second {
		t.Errorf("Shutdown took %v: it did not wait for the forward in flight", took)
	}
	if got := endpoints.Value(); got != baseline {
		t.Errorf("transport_pool_endpoints = %d after Shutdown, %d before Start: the peer pool was used after it closed", got, baseline)
	}
}
