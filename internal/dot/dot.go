// Package dot implements the server side of DNS-over-TLS (RFC 7858): it
// terminates TLS and dispatches to the shared dns53 handler and framing
// machinery. DoT runs the RFC 1035 TCP framing over a TLS session on its
// dedicated port 853 — the design that makes it easy for networks to
// block wholesale, which is why the paper's measured resolvers
// overwhelmingly deploy DoH alongside or instead. The client side is
// transport's tls:// scheme: its attempt routine handshakes and runs
// dns53.ExchangeConn on the TLS connection.
package dot

import (
	"crypto/tls"
	"errors"
	"net"

	"encdns/internal/dns53"
)

// Server terminates DoT connections and hands them to a dns53.Server: TLS
// is a listener wrapped around its stream loop, so accept handling,
// connection tracking, Shutdown and the run-to-completion serving (every
// query pipelined into one TLS record answered in one TLS record, in
// order; see dns53.Server) are that server's.
type Server struct {
	DNS *dns53.Server
	TLS *tls.Config
}

// Serve accepts TLS connections from ln until it is closed or DNS is shut
// down, which closes ln and makes Serve return nil. Pass a plain TCP
// listener; Serve wraps it with the server's TLS config.
func (s *Server) Serve(ln net.Listener) error {
	if s.TLS == nil {
		return errors.New("dot: server needs a TLS config")
	}
	return s.DNS.ServeTCP(tls.NewListener(ln, s.TLS))
}
