package transport

import (
	"context"
	"crypto/tls"
	"fmt"
	"net"
	"net/url"
	"sync"
	"time"

	"encdns/internal/dnswire"
)

// Options configures Dial. The zero value is usable: system TLS roots and
// the default retry policy. Every exchange dials a connection of its own,
// as the paper's dig-style probes do. Fresh is not full: TLS session
// tickets are cached per exchanger, so only the first connection to a
// server pays the full handshake and every later one resumes.
type Options struct {
	// Timeout bounds each attempt; zero uses the scheme's default: 2s for
	// udp and tcp, 5s for tls and https. A udp answer that arrives
	// truncated is asked again over tcp within a bound of its own.
	Timeout time.Duration
	// TLS configures certificate verification for tls:// and https://
	// endpoints; nil uses the system roots. Dial clones it per endpoint
	// and never changes the caller's value. An empty ServerName is the
	// endpoint's host, and an empty CurvePreferences offers X25519, P-256,
	// P-384 and P-521, not X25519MLKEM768.
	TLS *tls.Config
	// Dialer provides the underlying connections; nil uses net.Dialer.
	// Injecting a dialer is how tests run over in-process transports.
	Dialer ContextDialer
	// Retry is the shared retry policy applied to every scheme; nil
	// applies DefaultRetryPolicy. Pass NoRetry() for single attempts.
	Retry *RetryPolicy
}

// ContextDialer matches net.Dialer's DialContext, the injection point for
// custom transports.
type ContextDialer interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

// Dial parses a chain-addressed endpoint and binds an Exchanger to it.
// This is the one place protocol selection happens; every consumer above
// speaks Exchanger. The endpoint may carry a dialer-chain prefix
// ("tlsfrag:sni|tls://…"); how the connection is established is decided
// entirely by the chain dialer (see chainDialer), never here.
func Dial(endpoint string, opts Options) (Exchanger, error) {
	ce, err := ParseChain(endpoint)
	if err != nil {
		return nil, err
	}
	m := schemeInstruments[ce.Scheme]
	e := &exchanger{
		scheme:  ce.Scheme,
		addr:    ce.Addr(),
		dialer:  &chainDialer{base: opts.Dialer, layers: ce.Layers, failures: m.dialFailures},
		timeout: opts.Timeout,
		policy:  DefaultRetryPolicy(),
		m:       m,
	}
	if e.dialer.base == nil {
		e.dialer.base = &net.Dialer{}
	}
	if e.timeout <= 0 {
		e.timeout = attemptTimeout[ce.Scheme]
	}
	if opts.Retry != nil {
		e.policy = *opts.Retry
	}
	e.policy = e.policy.normalize()
	switch ce.Scheme {
	case SchemeTLS:
		e.tls = probeTLS(opts.TLS, ce.Host)
	case SchemeHTTPS:
		u, err := url.Parse(ce.Endpoint.String())
		if err != nil {
			return nil, fmt.Errorf("transport: endpoint %q: %w", endpoint, err)
		}
		e.tls = probeTLS(opts.TLS, ce.Host)
		e.tls.NextProtos = []string{"h2", "http/1.1"}
		e.authority, e.path = u.Host, u.RequestURI()
	}
	return e, nil
}

// classicalGroups are the key-exchange groups every encrypted client Dial
// builds offers: Go's defaults without the hybrid X25519MLKEM768, which the
// paper's 2022 dig/OpenSSL probes could not offer. Go sends one X25519
// key share whatever the order, and a server that speaks only P-256 asks
// for it by HelloRetryRequest, so a resolver that lacks X25519 is slower,
// not unavailable.
var classicalGroups = []tls.CurveID{tls.X25519, tls.CurveP256, tls.CurveP384, tls.CurveP521}

// probeTLS is the TLS configuration of one endpoint's exchanger: a clone
// of cfg that names host unless cfg names a server, offers classicalGroups
// unless cfg names its own, and keeps the endpoint's session tickets.
func probeTLS(cfg *tls.Config, host string) *tls.Config {
	if cfg == nil {
		cfg = &tls.Config{}
	} else {
		cfg = cfg.Clone()
	}
	if cfg.ServerName == "" {
		cfg.ServerName = host
	}
	if len(cfg.CurvePreferences) == 0 {
		cfg.CurvePreferences = classicalGroups
	}
	if cfg.ClientSessionCache == nil {
		cfg.ClientSessionCache = tls.NewLRUClientSessionCache(32)
	}
	return cfg
}

// Pool is the endpoint-addressed exchanger: it dials one Exchanger per
// distinct endpoint on first use and reuses it afterwards. It implements
// Multi, so it plugs directly into the forwarder and the live prober,
// both of which address many endpoints through one value.
type Pool struct {
	opts Options

	mu  sync.Mutex
	exs map[string]Exchanger
}

// NewPool builds an empty pool dialling with opts.
func NewPool(opts Options) *Pool {
	return &Pool{opts: opts, exs: make(map[string]Exchanger)}
}

// Get returns the pool's exchanger for endpoint, dialling on first use.
// Chain prefixes are part of the identity: "tlsfrag:sni|tls://host" and
// "tls://host" are distinct exchangers.
func (p *Pool) Get(endpoint string) (Exchanger, error) {
	ce, err := ParseChain(endpoint)
	if err != nil {
		return nil, err
	}
	key := ce.String()
	p.mu.Lock()
	defer p.mu.Unlock()
	if ex, ok := p.exs[key]; ok {
		return ex, nil
	}
	ex, err := Dial(key, p.opts)
	if err != nil {
		return nil, err
	}
	p.exs[key] = ex
	poolEndpoints.Inc()
	return ex, nil
}

// Exchange implements Multi.
func (p *Pool) Exchange(ctx context.Context, q *dnswire.Message, endpoint string) (*dnswire.Message, error) {
	ex, err := p.Get(endpoint)
	if err != nil {
		return nil, err
	}
	return ex.Exchange(ctx, q)
}

// Close closes every dialled exchanger, returning the first error.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var firstErr error
	for key, ex := range p.exs {
		if err := ex.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(p.exs, key)
		poolEndpoints.Dec()
	}
	return firstErr
}
