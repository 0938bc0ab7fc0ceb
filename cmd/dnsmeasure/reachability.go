package main

import (
	"context"
	"fmt"
	"io"
	"net/netip"

	"encdns/internal/authdns"
	"encdns/internal/certs"
	"encdns/internal/dialer"
	"encdns/internal/dns53"
	"encdns/internal/dot"
	"encdns/internal/live"
	"encdns/internal/transport"
)

// runReachability is the -reachability scenario: a deterministic,
// in-process demonstration of the paper's reachability axis. Three
// mainstream DoT endpoints are served on a byte-level VirtualNet and
// probed from four simulated vantages — an open network, a
// single-segment SNI censor, a middlebox that drops large first TLS
// records, and a blackhole. Every (vantage, endpoint) pair is classified
// reachable-plain / reachable-evasion / unreachable; the evasion ladder
// is the transport chain grammar (tlsfrag:, split:), so a
// reachable-evasion verdict names the chain that got through.
func runReachability(w io.Writer) error {
	vn := dialer.NewVirtualNet()
	ca, err := certs.NewCA(0)
	if err != nil {
		return err
	}
	hosts := []string{"dns.google", "one.one.one.one", "dns.quad9.net"}
	zone := authdns.NewZone(".")
	zone.AddA("example.com.", 300, netip.MustParseAddr("192.0.2.1"))
	var endpoints []string
	var shutdowns []func()
	defer func() {
		for _, stop := range shutdowns {
			stop()
		}
	}()
	for _, host := range hosts {
		srvTLS, err := ca.ServerConfig([]string{host}, nil)
		if err != nil {
			return err
		}
		inner := &dns53.Server{Handler: zone}
		ln, err := vn.Listen(host + ":853")
		if err != nil {
			return err
		}
		go (&dot.Server{DNS: inner, TLS: srvTLS}).Serve(ln)
		shutdowns = append(shutdowns, func() { ln.Close(); inner.Shutdown() })
		endpoints = append(endpoints, "tls://"+host+":853")
	}

	tlsCfg := ca.ClientConfig("")
	tlsCfg.ServerName = ""
	results, err := live.RunReachability(context.Background(), live.ReachabilityConfig{
		Net: vn,
		Vantages: []live.VantagePolicy{
			{Name: "open-net"},
			{Name: "sni-censor", Middleboxes: []dialer.Middlebox{
				&dialer.RSTOnSNI{Blocked: hosts},
			}},
			{Name: "large-record-filter", Middleboxes: []dialer.Middlebox{
				&dialer.DropLargeRecord{MaxBytes: 64},
			}},
			{Name: "blackhole", Middleboxes: []dialer.Middlebox{&dialer.Blackhole{}}},
		},
		Endpoints: endpoints,
		Options:   transport.Options{TLS: tlsCfg},
	})
	if err != nil {
		return err
	}
	if err := live.RenderReachability(w, results); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "\nclasses: reachable-plain (ordinary dial works), reachable-evasion (only a dialer chain gets through), unreachable (nothing works)")
	return err
}
