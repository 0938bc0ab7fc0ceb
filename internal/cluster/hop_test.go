package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"testing"

	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/keyhash"
	"encdns/internal/resolver"
	"encdns/internal/testutil"
	"encdns/internal/transport"
)

// BenchmarkPeerHop is the price of one cluster hop, the figure ROADMAP
// item 4's verdict weighs against the paper's resolver delays: the cluster
// stays only if forwarding a query to its owner costs little next to the
// upstream lookups the shared cache saves. An origin node forwards every
// query through a transport.Pool (one attempt) over loopback UDP to a
// dns53.Server serving the owning peer's node, whose Local answers from a
// warm cache; every name is the peer's. One op is one client query
// answered through the hop: marking, the exchange both ways, the peer's
// routing and cache lookup, and the origin's health bookkeeping.
func BenchmarkPeerHop(b *testing.B) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	peerID, err := PeerID(pc.LocalAddr().String())
	if err != nil {
		b.Fatal(err)
	}
	const originID = "udp://127.0.0.1:1" // never dialed: the origin owns nothing asked

	cache := resolver.NewCache(4096, nil)
	b.Cleanup(cache.Close)
	peer := &Node{
		Self:      peerID,
		Peers:     []string{originID},
		Local:     cacheFirst{&countingResolver{cache: cache, addr: netip.MustParseAddr("192.0.2.2")}},
		ClusterID: "bench",
	}
	srv := &dns53.Server{Handler: peer}
	go srv.ServeUDP(pc)
	b.Cleanup(srv.Shutdown)

	retry := transport.NoRetry()
	pool := transport.NewPool(transport.Options{Retry: &retry})
	b.Cleanup(func() { pool.Close() })
	origin := &Node{
		Self:  originID,
		Peers: []string{peerID},
		Local: testutil.HandlerFunc(func(context.Context, *dnswire.Message) (*dnswire.Message, error) {
			return nil, errors.New("the hop failed and the origin fell back to Local")
		}),
		Forward:   pool,
		ClusterID: "bench",
	}
	b.Cleanup(origin.Close)

	ring := origin.currentRing()
	var queries []*dnswire.Message
	for i := 0; len(queries) < 64; i++ {
		name := fmt.Sprintf("hop-%d.example.com.", i)
		if o, _ := ring.Owner(keyhash.Key(name, uint16(dnswire.TypeA))); o != peerID {
			continue
		}
		q := dnswire.NewQuery(uint16(i), name, dnswire.TypeA)
		// Warm the peer's cache: every timed hop is answered from it.
		if resp, err := origin.ServeDNS(context.Background(), q); err != nil || len(resp.Answers) != 1 {
			b.Fatalf("warming %s: %v", name, err)
		}
		queries = append(queries, q)
	}

	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := origin.ServeDNS(ctx, queries[i%len(queries)])
		if err != nil || len(resp.Answers) != 1 {
			b.Fatalf("hop %d: %v", i, err)
		}
	}
}
