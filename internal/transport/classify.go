package transport

import (
	"context"
	"crypto/tls"
	"errors"
	"net"
	"os"
	"strings"
	"syscall"

	"encdns/internal/doh"
	"encdns/internal/netsim"
)

// Classify maps a live transport error onto the model's error taxonomy,
// mirroring the paper's §4 availability analysis categories ("The most
// common errors ... were related to a failure to establish a
// connection"). It lives in the transport layer so the measurement
// engine, the forwarder, and the CLIs all bucket failures identically.
func Classify(err error) netsim.ErrClass {
	if err == nil {
		return netsim.OK
	}
	var httpErr *doh.HTTPError
	if errors.As(err, &httpErr) {
		return netsim.ErrHTTP
	}
	var protoErr *doh.ProtocolError // what net/http's HTTP/2 errors fell through to
	if errors.As(err, &protoErr) {
		return netsim.ErrConnect
	}
	// Typed cases first; dialer.LayerError and net.OpError wrappers all
	// unwrap through errors.Is/As, so chain-layer failures classify the
	// same as their underlying cause.
	var recErr tls.RecordHeaderError
	if errors.As(err, &recErr) {
		return netsim.ErrTLS
	}
	if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.ECONNREFUSED) {
		return netsim.ErrConnect
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded) {
		return netsim.ErrTimeout
	}
	var netErr net.Error
	if errors.As(err, &netErr) && netErr.Timeout() {
		return netsim.ErrTimeout
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, "tls:") || strings.Contains(msg, "x509:") ||
		strings.Contains(msg, "certificate"):
		return netsim.ErrTLS
	case strings.Contains(msg, "connection refused") ||
		strings.Contains(msg, "no such host") ||
		strings.Contains(msg, "network is unreachable") ||
		strings.Contains(msg, "connection reset"):
		return netsim.ErrConnect
	case strings.Contains(msg, "timeout") || strings.Contains(msg, "deadline"):
		return netsim.ErrTimeout
	default:
		return netsim.ErrConnect
	}
}
