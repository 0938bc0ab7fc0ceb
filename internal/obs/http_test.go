// The HTTP handler lives in internal/obshttp; these tests read obs's
// registry and watch reports through it, as an external package.
package obs_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"encdns/internal/obs"
	"encdns/internal/obshttp"
)

func TestHTTPHandlerMetrics(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("h_total", "help", "scheme", "udp").Add(9)
	srv := httptest.NewServer(obshttp.NewHandler(r, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `h_total{scheme="udp"} 9`) {
		t.Errorf("scrape missing series:\n%s", body)
	}
}

func TestHTTPHandlerDebugObs(t *testing.T) {
	r := obs.NewRegistry()
	r.Gauge("h_gauge", "help").Set(4)
	h := r.Histogram("h_seconds", "help", []float64{0.1})
	h.Observe(0.05)
	srv := httptest.NewServer(obshttp.NewHandler(r, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var snap map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if string(snap["h_gauge"]) != "4" {
		t.Errorf("h_gauge = %s, want 4", snap["h_gauge"])
	}
	var hs obs.HistogramSnapshot
	if err := json.Unmarshal(snap["h_seconds"], &hs); err != nil {
		t.Fatal(err)
	}
	if hs.Count != 1 || hs.Sum != 0.05 {
		t.Errorf("h_seconds = %+v, want count 1 sum 0.05", hs)
	}
}

// fakeWatch backs /debug/watch and /debug/watch/events in handler tests.
type fakeWatch struct{ rep obs.WatchReport }

func (f *fakeWatch) WatchReport() obs.WatchReport { return f.rep }
func (f *fakeWatch) WriteEventsJSONL(w io.Writer) error {
	_, err := io.WriteString(w, `{"type":"state-transition","target":"x"}`+"\n")
	return err
}

func TestHTTPHandlerWatch(t *testing.T) {
	src := &fakeWatch{rep: obs.WatchReport{
		WindowSecs: 600, IntervalSecs: 10,
		Targets: []obs.WatchTarget{{Target: "doh:x", State: "degraded", Availability: 0.93}},
	}}
	srv := httptest.NewServer(obshttp.NewHandler(obs.NewRegistry(), src))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var rep obs.WatchReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Targets) != 1 || rep.Targets[0].State != "degraded" {
		t.Errorf("report = %+v, want the fake source's target", rep)
	}

	// The same source backs the event journal.
	resp2, err := http.Get(srv.URL + "/debug/watch/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type = %q", ct)
	}
	if !strings.Contains(string(body), `"state-transition"`) {
		t.Errorf("events body = %q, want the fake journal line", body)
	}
}

func TestHTTPHandlerWatchWithoutSource(t *testing.T) {
	srv := httptest.NewServer(obshttp.NewHandler(obs.NewRegistry(), nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep obs.WatchReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("sourceless /debug/watch not valid JSON: %v", err)
	}
	if rep.Targets == nil || len(rep.Targets) != 0 {
		t.Errorf("sourceless report targets = %v, want empty non-null array", rep.Targets)
	}
}

func TestHTTPHandlerDashboardAndPprof(t *testing.T) {
	srv := httptest.NewServer(obshttp.NewHandler(obs.NewRegistry(), nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/watch/ui")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/html") {
		t.Errorf("ui content type = %q", resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(string(body), "encdns watchtower") {
		t.Errorf("dashboard HTML missing title")
	}

	resp2, err := http.Get(srv.URL + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || !strings.Contains(string(prof), "goroutine profile:") {
		t.Errorf("pprof goroutine status=%d body=%.80q", resp2.StatusCode, prof)
	}
}
