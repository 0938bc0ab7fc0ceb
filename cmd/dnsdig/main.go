// Command dnsdig is a dig-style DNS query tool speaking every measured
// transport — the client half of the paper's §3.1 methodology ("we
// performed dig queries to the resolvers").
//
// Servers are scheme-addressed transport endpoints: udp:// (default for
// bare host:port), tcp://, tls://, and https://. The legacy -proto flag
// still selects the scheme for bare addresses.
//
//	dnsdig -server 127.0.0.1:5353 google.com A
//	dnsdig -server https://127.0.0.1:8443/dns-query -cacert /tmp/dohserver-ca.pem google.com
//	dnsdig -server tls://127.0.0.1:8853 -insecure wikipedia.com AAAA
//	dnsdig -server tcp://9.9.9.9:53 -retries 1 example.org
//	dnsdig -trace -server tls://127.0.0.1:8853 -insecure example.org
//	dnsdig -trace -roots 198.18.0.1:53,198.18.0.2:53 www.amazon.com
//
// -trace has two modes. With -roots it resolves iteratively from the
// given root servers over Do53, printing each referral step like dig
// +trace. Without -roots it queries -server normally and prints the
// per-attempt span tree (dial, TLS handshake, write, first byte) the
// transport recorded for the exchange.
package main

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"encdns/internal/cluster"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/keyhash"
	"encdns/internal/obs"
	"encdns/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dnsdig:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dnsdig", flag.ContinueOnError)
	var (
		server   = fs.String("server", "127.0.0.1:53", "scheme-addressed server endpoint (udp://, tcp://, tls://, https://; bare host:port follows -proto)")
		proto    = fs.String("proto", "do53", "scheme for bare -server addresses: do53 (udp), dot (tls), or doh (https)")
		caCert   = fs.String("cacert", "", "PEM file with a CA to trust for TLS transports")
		insecure = fs.Bool("insecure", false, "skip TLS certificate verification")
		timeout  = fs.Duration("timeout", 5*time.Second, "query timeout")
		retries  = fs.Int("retries", 3, "total exchange attempts (shared transport retry policy)")
		chain    = fs.String("chain", "", "dialer-chain prefix for -server, e.g. \"split:3|tlsfrag:sni\" (layers: split:N, tlsfrag:sni|N, delay:DUR[:every])")
		short    = fs.Bool("short", false, "print only the answer RDATA")
		trace    = fs.Bool("trace", false, "with -roots: iterate from the roots printing each step; without: print the query's span tree")
		roots    = fs.String("roots", "", "comma-separated root server addresses for referral -trace")
		gluePort = fs.Int("glue-port", 53, "port appended to glue addresses during -trace")

		ring      = fs.Bool("ring", false, "cluster debug mode: print ring ownership, per-peer health, and the owner of the query name (requires -peers)")
		peers     = fs.String("peers", "", "comma-separated cluster peer endpoints for -ring, Do53 as dohserver -peers takes them (host:port or udp://host[:port])")
		clusterID = fs.String("cluster-id", "encdns", "cluster identity for -ring health probes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("usage: dnsdig [flags] name [type]")
	}
	name := fs.Arg(0)
	qtype := dnswire.TypeA
	if fs.NArg() >= 2 {
		t, ok := dnswire.ParseType(strings.ToUpper(fs.Arg(1)))
		if !ok {
			return fmt.Errorf("unknown query type %q", fs.Arg(1))
		}
		qtype = t
	}
	if err := dnswire.ValidateName(name); err != nil {
		return fmt.Errorf("invalid name %q: %w", name, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if *ring {
		if *peers == "" {
			return fmt.Errorf("-ring requires -peers (the cluster's peer endpoints)")
		}
		ids, err := cluster.PeerIDs(*peers)
		if err != nil {
			return fmt.Errorf("-peers: %w", err)
		}
		return runRing(ctx, w, name, qtype, ids, *clusterID, *timeout)
	}
	if *trace && *roots != "" {
		return runTrace(ctx, w, name, qtype, strings.Split(*roots, ","), *timeout, *retries, *gluePort)
	}

	tlsCfg, err := tlsConfig(*caCert, *insecure)
	if err != nil {
		return err
	}
	// Shared target grammar (transport.ParseTarget): the same endpoint
	// spelling works in dnsmeasure -resolvers and here.
	endpoint, err := transport.ParseTarget(*server, *proto)
	if err != nil {
		return err
	}
	spec := endpoint.String()
	if *chain != "" {
		// -chain prepends layers to whatever the -server spec already
		// carries; transport.ParseChain validates the combination.
		spec = *chain + "|" + spec
	}
	opts := transport.Options{
		TLS:     tlsCfg,
		Timeout: *timeout,
		Retry:   &transport.RetryPolicy{MaxAttempts: *retries},
	}
	ex, err := transport.Dial(spec, opts)
	if err != nil {
		return err
	}
	defer ex.Close()

	var tr *obs.Trace
	if *trace {
		ctx, tr = obs.StartTrace(ctx, fmt.Sprintf("dnsdig %s %s via %s", name, qtype, spec))
	}
	q := dnswire.NewQuery(dns53.NewID(), name, qtype)
	start := time.Now()
	resp, err := ex.Exchange(ctx, q)
	elapsed := time.Since(start)
	if tr != nil {
		tr.Finish()
	}
	if err != nil {
		if tr != nil {
			fmt.Fprint(w, tr.String())
		}
		return err
	}
	if *short {
		for _, rr := range resp.Answers {
			fmt.Fprintln(w, rr.Data)
		}
		return nil
	}
	fmt.Fprint(w, resp)
	fmt.Fprintf(w, ";; Query time: %d msec\n;; SERVER: %s (%s)\n", elapsed.Milliseconds(), spec, endpoint.Scheme)
	if tr != nil {
		fmt.Fprintln(w, ";; Trace:")
		fmt.Fprint(w, tr.String())
	}
	return nil
}

func tlsConfig(caCert string, insecure bool) (*tls.Config, error) {
	cfg := &tls.Config{}
	if insecure {
		cfg.InsecureSkipVerify = true
	}
	if caCert != "" {
		pemBytes, err := os.ReadFile(caCert)
		if err != nil {
			return nil, fmt.Errorf("reading CA: %w", err)
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pemBytes) {
			return nil, fmt.Errorf("no certificates in %s", caCert)
		}
		cfg.RootCAs = pool
	}
	return cfg, nil
}

// fmtDur renders sub-second durations at microsecond precision so the
// ring table's RTT column stays aligned and comparable.
func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// runRing rebuilds a cluster's consistent-hash ring from its peer IDs
// (ring layout depends only on the ID strings, and cluster.PeerIDs spells
// them as every member does), probes each peer's health over the cluster
// marker protocol, and prints where the query name lives.
func runRing(ctx context.Context, w io.Writer, name string, qtype dnswire.Type, peers []string, clusterID string, timeout time.Duration) error {
	r := cluster.NewRing(peers, 0)
	if r.Len() == 0 {
		return fmt.Errorf("-ring: no usable peers")
	}
	shares := r.Shares()

	noRetry := transport.NoRetry()
	pool := transport.NewPool(transport.Options{
		Timeout: timeout,
		Retry:   &noRetry,
	})
	defer pool.Close()
	fmt.Fprintf(w, ";; cluster ring: %d peers, %d vnodes/peer, cluster-id %q\n",
		r.Len(), cluster.DefaultVNodes, clusterID)
	fmt.Fprintf(w, ";; %-28s %-10s %10s %8s\n", "PEER", "STATE", "RTT", "SHARE")
	for _, p := range r.Peers() {
		state, rtt := probePeer(ctx, pool, p, clusterID)
		fmt.Fprintf(w, ";; %-28s %-10s %10s %7.1f%%\n", p, state, fmtDur(rtt), 100*shares[p])
	}

	hash := keyhash.Key(name, uint16(qtype))
	owner, _ := r.Owner(hash)
	fmt.Fprintf(w, ";; key %s/%s -> hash %#016x\n", dnswire.CanonicalName(name), qtype, hash)
	fmt.Fprintf(w, ";; owner: %s\n", owner)
	return nil
}

// probePeer sends one health probe and classifies the peer's state the
// way the cluster's own membership layer would see the exchange.
func probePeer(ctx context.Context, pool *transport.Pool, peer, clusterID string) (string, time.Duration) {
	start := time.Now()
	resp, err := pool.Exchange(ctx, cluster.ProbeQuery(clusterID), peer)
	rtt := time.Since(start)
	switch {
	case err != nil:
		return "down", rtt
	case resp.Header.RCode == dnswire.RCodeRefused:
		return "foreign", rtt // alive, but a different cluster-id
	default:
		return "up", rtt
	}
}

// runTrace walks the delegation chain from the roots over Do53, printing
// each step — dig +trace.
func runTrace(ctx context.Context, w io.Writer, name string, qtype dnswire.Type, roots []string, timeout time.Duration, retries, gluePort int) error {
	pool := transport.NewPool(transport.Options{Timeout: timeout, Retry: &transport.RetryPolicy{MaxAttempts: retries}})
	defer pool.Close()
	servers := roots
	zone := "."
	for depth := 0; depth < 16; depth++ {
		if len(servers) == 0 {
			return fmt.Errorf("no servers to query for %s", zone)
		}
		server := strings.TrimSpace(servers[0])
		q := dnswire.NewQuery(dns53.NewID(), name, qtype)
		q.Header.RD = false
		resp, err := pool.Exchange(ctx, q, server)
		if err != nil {
			if len(servers) > 1 {
				servers = servers[1:]
				continue
			}
			return fmt.Errorf("querying %s: %w", server, err)
		}
		fmt.Fprintf(w, ";; zone %s via %s: %s, %d answer(s), %d authority\n",
			zone, server, resp.Header.RCode, len(resp.Answers), len(resp.Authority))
		if len(resp.Answers) > 0 || resp.Header.RCode == dnswire.RCodeNXDomain {
			for _, rr := range resp.Answers {
				fmt.Fprintln(w, rr)
			}
			if resp.Header.RCode != dnswire.RCodeSuccess {
				fmt.Fprintf(w, ";; final status: %s\n", resp.Header.RCode)
			}
			return nil
		}
		// Referral: print the NS set and follow the glue.
		var next []string
		var nextZone string
		for _, rr := range resp.Authority {
			fmt.Fprintln(w, rr)
			if rr.Type == dnswire.TypeNS {
				nextZone = dnswire.CanonicalName(rr.Name)
			}
		}
		for _, rr := range resp.Additional {
			if a, ok := rr.Data.(*dnswire.A); ok {
				next = append(next, fmt.Sprintf("%s:%d", a.Addr, gluePort))
			}
		}
		if len(next) == 0 {
			return fmt.Errorf("glueless referral for %s; cannot continue", nextZone)
		}
		servers, zone = next, nextZone
	}
	return fmt.Errorf("referral chain too deep")
}
