package obshttp

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"encdns/internal/obs"
)

func TestServe(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("srv_total", "help").Inc()
	bound, shutdown, err := Serve("127.0.0.1:0", NewHandler(r, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "srv_total 1") {
		t.Errorf("scrape via Serve missing series:\n%s", body)
	}
}

// TestShutdownForceClosesSlowClient: a client that opens a request and
// never reads the response must not wedge shutdown past the drain
// deadline.
func TestShutdownForceClosesSlowClient(t *testing.T) {
	oldDrain := shutdownDrain
	shutdownDrain = 50 * time.Millisecond
	defer func() { shutdownDrain = oldDrain }()

	blocked := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(blocked)
		<-r.Context().Done() // hold the connection until forced shut
	})
	bound, shutdown, err := Serve("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", bound)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /hang HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	<-blocked

	done := make(chan error, 1)
	go func() { done <- shutdown() }()
	select {
	case <-done:
		// Force-closed the wedged connection; fast exit is the contract.
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown wedged behind a slow client")
	}
}
