// Live loopback: the whole stack, no simulation. This example starts
// dohserver's resolver in-process (internal/serve: authoritative
// root/TLD/leaf zones, a caching recursive resolver, and a DoH frontend
// on a loopback TLS listener), then measures it with the live prober over
// real sockets, exactly as dnsmeasure -mode live would measure a public
// resolver.
//
//	go run ./examples/live-loopback
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"encdns"
	"encdns/internal/doh"
	"encdns/internal/serve"
	"encdns/internal/stats"
)

func main() {
	// 1–3. The stack dohserver runs, DoH only: the authoritative hierarchy
	// for the paper's three domains, a caching recursive resolver walking
	// it, and a DoH frontend on a loopback TLS listener with a throwaway CA.
	st, err := serve.Start(context.Background(), serve.Config{DoH: "127.0.0.1:0", Cache: 4096})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Shutdown()
	endpoint := "https://" + st.DoH + doh.DefaultPath
	fmt.Println("serving DoH at", endpoint)

	// 4. Measure it live: fresh connections, wall-clock timing, through
	// the scheme-addressed transport layer (the endpoint's https://
	// scheme selects DoH; no per-protocol wiring here).
	pool := encdns.NewTransportPool(encdns.TransportOptions{TLS: st.CA.ClientConfig("127.0.0.1")})
	prober := &encdns.LiveProber{Transport: pool}
	cfg := encdns.CampaignConfig{
		Vantages: []encdns.Vantage{{Name: "loopback"}},
		Targets:  []encdns.Target{{Host: "loopback-resolver", Endpoint: endpoint}},
		Domains:  encdns.Domains,
		Rounds:   10,
		Interval: time.Millisecond,
		Clock:    encdns.WallClock{},
	}
	campaign, err := encdns.NewCampaign(cfg, prober)
	if err != nil {
		log.Fatal(err)
	}
	results, err := campaign.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	samples := results.QuerySamples("loopback", "loopback-resolver")
	av := results.Availability()
	fmt.Printf("\n%d live queries: %d ok, %d errors\n", av.Successes+av.Errors, av.Successes, av.Errors)
	fmt.Printf("response time over loopback: median %.2f ms, p95 %.2f ms\n",
		stats.Median(samples), stats.Quantile(samples, 0.95))
	fmt.Println("\n(the first round resolves through root → com → leaf; later rounds hit the cache)")
}
