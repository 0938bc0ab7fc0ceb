// Package obshttp serves the obs registry and watch reports over HTTP:
// the introspection endpoints dohserver mounts next to /dns-query and
// dnsmeasure serves on -metrics-addr. It is the one place obs meets
// net/http, so the simulation, which links obs, links no network code.
package obshttp

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"encdns/internal/obs"
)

// NewHandler returns the live introspection endpoint for r:
//
//	/metrics             Prometheus text exposition format
//	/debug/obs           JSON snapshot of every instrument
//	/debug/watch         windowed per-target timeseries (JSON; see obs.WatchReport)
//	/debug/watch/events  monitor event journal as JSON Lines
//	/debug/watch/ui      dependency-free auto-refreshing HTML dashboard
//	/debug/pprof/...     net/http/pprof profiles (goroutine, heap, profile, trace, ...)
//
// Mount it on any mux (dohserver mounts it next to /dns-query) or serve
// it standalone with Serve. watch backs the watch endpoints; with a nil
// watch they answer with an empty (but well-formed) report and journal.
func NewHandler(r *obs.Registry, watch obs.WatchSource) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/debug/watch", func(w http.ResponseWriter, _ *http.Request) {
		rep := obs.WatchReport{Now: time.Now().UTC(), Targets: []obs.WatchTarget{}}
		if watch != nil {
			rep = watch.WatchReport()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	})
	mux.HandleFunc("/debug/watch/events", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if watch != nil {
			_ = watch.WriteEventsJSONL(w)
		}
	})
	mux.HandleFunc("/debug/watch/ui", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write([]byte(watchDashboardHTML))
	})
	// net/http/pprof registers on DefaultServeMux via side effect; this
	// handler owns its mux, so mount the profile endpoints explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// shutdownDrain bounds how long Serve's shutdown waits for in-flight
// scrapes before force-closing their connections. A variable so the
// slow-client test can tighten it.
var shutdownDrain = 2 * time.Second

// Serve listens on addr (":0" picks a free port) and serves h over plain
// HTTP. It returns the bound address and a shutdown function; this backs
// dnsmeasure's -metrics-addr flag. The shutdown function drains
// gracefully with a deadline: in-flight requests get shutdownDrain to
// finish, then their connections are force-closed — a stuck scrape
// cannot wedge process exit.
func Serve(addr string, h http.Handler) (bound string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	shutdown = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownDrain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			// Deadline expired with connections still busy: close them.
			return srv.Close()
		}
		return nil
	}
	return ln.Addr().String(), shutdown, nil
}
