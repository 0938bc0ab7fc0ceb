package odoh

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"encdns/internal/dns53"
	"encdns/internal/dnswire"
)

// DefaultPath is the conventional ODoH endpoint path.
const DefaultPath = "/dns-query"

// maxBody bounds oblivious message bodies (DNS limit + encapsulation).
const maxBody = dnswire.MaxMessageSize + 1 + pubKeyLen + 16

// TargetHandler serves the target role: it decrypts oblivious queries,
// answers them through the underlying DNS handler, and seals the
// responses. It also serves its key configuration at GET <path>?config.
type TargetHandler struct {
	Key *TargetKey
	DNS dns53.Handler
}

// ServeHTTP implements http.Handler.
func (t *TargetHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		// Config fetch (stand-in for the RFC's SVCB/well-known channel).
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(t.Key.Config())
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != ContentType {
		http.Error(w, "unsupported media type", http.StatusUnsupportedMediaType)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil || len(body) > maxBody {
		http.Error(w, "bad body", http.StatusBadRequest)
		return
	}
	queryWire, responder, err := t.Key.OpenQuery(body)
	if err != nil {
		http.Error(w, "cannot decrypt query", http.StatusBadRequest)
		return
	}
	query, err := dnswire.Unpack(queryWire)
	if err != nil {
		http.Error(w, "malformed DNS query", http.StatusBadRequest)
		return
	}
	// A handler failure is already the SERVFAIL in respWire.
	respWire, _, _ := dns53.Answer(r.Context(), t.DNS, nil, query, queryWire, dnswire.MaxMessageSize)
	sealed, err := responder.Seal(respWire)
	if err != nil {
		http.Error(w, "sealing response", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ContentType)
	_, _ = w.Write(sealed)
}

// RelayHandler serves the relay role: it forwards opaque oblivious
// messages to the target named in the targethost/targetpath query
// parameters (RFC 9230 §4.3) without being able to read them.
type RelayHandler struct {
	// Client performs the upstream POST; nil uses http.DefaultClient.
	Client *http.Client
	// AllowTarget, when non-nil, filters which targets the relay serves —
	// open relays invite abuse.
	AllowTarget func(host string) bool
}

func (rh *RelayHandler) client() *http.Client {
	if rh.Client != nil {
		return rh.Client
	}
	return http.DefaultClient
}

// ServeHTTP implements http.Handler.
func (rh *RelayHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	targetHost := r.URL.Query().Get("targethost")
	targetPath := r.URL.Query().Get("targetpath")
	if targetHost == "" {
		http.Error(w, "missing targethost", http.StatusBadRequest)
		return
	}
	if rh.AllowTarget != nil && !rh.AllowTarget(targetHost) {
		http.Error(w, "target not allowed", http.StatusForbidden)
		return
	}
	if targetPath == "" {
		targetPath = DefaultPath
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil || len(body) > maxBody {
		http.Error(w, "bad body", http.StatusBadRequest)
		return
	}
	u := &url.URL{Scheme: "https", Host: targetHost, Path: targetPath}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, u.String(), bytes.NewReader(body))
	if err != nil {
		http.Error(w, "building upstream request", http.StatusInternalServerError)
		return
	}
	req.Header.Set("Content-Type", ContentType)
	resp, err := rh.client().Do(req)
	if err != nil {
		http.Error(w, "target unreachable", http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		http.Error(w, "target error", http.StatusBadGateway)
		return
	}
	out, err := io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
	if err != nil {
		http.Error(w, "reading target response", http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", ContentType)
	_, _ = w.Write(out)
}

// Client issues oblivious queries through a relay to a target.
type Client struct {
	// HTTP performs relay requests; nil uses a private default.
	HTTP *http.Client
	// Relay is the relay endpoint URL (scheme://host/path).
	Relay string
	// TargetHost and TargetPath name the target for the relay.
	TargetHost string
	TargetPath string
	// Config is the target's parsed key configuration.
	Config *ClientConfig
	// Timeout bounds each query; zero means 5s.
	Timeout time.Duration
}

func (c *Client) http() *http.Client {
	if c.HTTP == nil {
		c.HTTP = &http.Client{}
	}
	return c.HTTP
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 5 * time.Second
}

// FetchConfig retrieves and parses a target's key configuration from its
// GET endpoint.
func FetchConfig(ctx context.Context, client *http.Client, targetURL string) (*ClientConfig, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, targetURL, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("odoh: fetching config: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("odoh: config fetch returned %s", resp.Status)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 256))
	if err != nil {
		return nil, err
	}
	return ParseConfig(b)
}

// Query resolves (name, type) obliviously: seal → relay → target → open.
func (c *Client) Query(ctx context.Context, name string, t dnswire.Type) (*dnswire.Message, error) {
	if c.Config == nil {
		return nil, fmt.Errorf("odoh: client has no target config")
	}
	ctx, cancel := context.WithTimeout(ctx, c.timeout())
	defer cancel()

	q := dnswire.NewQuery(dns53.NewID(), name, t)
	wire, err := q.Pack()
	if err != nil {
		return nil, err
	}
	sealed, qctx, err := c.Config.Seal(wire)
	if err != nil {
		return nil, err
	}
	u, err := url.Parse(c.Relay)
	if err != nil {
		return nil, fmt.Errorf("odoh: relay URL: %w", err)
	}
	qs := u.Query()
	qs.Set("targethost", c.TargetHost)
	if c.TargetPath != "" {
		qs.Set("targetpath", c.TargetPath)
	}
	u.RawQuery = qs.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u.String(), bytes.NewReader(sealed))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ContentType)
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, fmt.Errorf("odoh: relay request: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("odoh: relay returned %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
	if err != nil {
		return nil, err
	}
	plain, err := qctx.Open(body)
	if err != nil {
		return nil, err
	}
	m, err := dnswire.Unpack(plain)
	if err != nil {
		return nil, fmt.Errorf("odoh: parsing response: %w", err)
	}
	if m.Header.ID != q.Header.ID {
		return nil, dns53.ErrIDMismatch
	}
	return m, nil
}
