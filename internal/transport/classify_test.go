package transport

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"os"
	"syscall"
	"testing"

	"encdns/internal/dialer"
	"encdns/internal/dns53"
	"encdns/internal/doh"
	"encdns/internal/netsim"
)

// timeoutErr is a minimal net.Error with Timeout() true, the shape
// net.Dialer returns for i/o timeouts.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

func TestClassifyTaxonomy(t *testing.T) {
	opErr := func(op string, err error) *net.OpError {
		return &net.OpError{Op: op, Net: "tcp", Addr: &net.TCPAddr{IP: net.IPv4(9, 9, 9, 9), Port: 853}, Err: err}
	}
	layered := func(layer string, err error) error {
		return &dialer.LayerError{Layer: layer, Err: err}
	}
	cases := []struct {
		name string
		err  error
		want netsim.ErrClass
	}{
		{"nil", nil, netsim.OK},
		{"deadline", context.DeadlineExceeded, netsim.ErrTimeout},
		{"os deadline", os.ErrDeadlineExceeded, netsim.ErrTimeout},
		{"wrapped deadline", fmt.Errorf("exchange: %w", context.DeadlineExceeded), netsim.ErrTimeout},
		{"net.Error timeout", opErr("read", timeoutErr{}), netsim.ErrTimeout},
		{"econnreset", opErr("read", syscall.ECONNRESET), netsim.ErrConnect},
		{"econnrefused", opErr("dial", syscall.ECONNREFUSED), netsim.ErrConnect},
		{"unreachable", opErr("dial", syscall.ENETUNREACH), netsim.ErrConnect},
		{"record header", tls.RecordHeaderError{Msg: "first record does not look like a TLS handshake"}, netsim.ErrTLS},
		{"x509", errors.New(`x509: certificate signed by unknown authority`), netsim.ErrTLS},
		{"tls alert", errors.New("tls: handshake failure"), netsim.ErrTLS},
		{"http status", &doh.HTTPError{StatusCode: 503, Status: "503 Service Unavailable"}, netsim.ErrHTTP},
		// A response that answers another query, by ID or by question.
		{"wrong ID", dns53.ErrIDMismatch, netsim.ErrConnect},
		{"wrong question", dns53.ErrQuestionMismatch, netsim.ErrConnect},

		// Dialer-chain error paths: the LayerError wrapper must be
		// transparent to the taxonomy.
		{"layered reset", layered("tlsfrag", opErr("write", syscall.ECONNRESET)), netsim.ErrConnect},
		{"layered deadline", layered("eyeballs", context.DeadlineExceeded), netsim.ErrTimeout},
		{"layered record header", layered("split", tls.RecordHeaderError{Msg: "bad record"}), netsim.ErrTLS},
		{"layered refused", layered("base", opErr("dial", syscall.ECONNREFUSED)), netsim.ErrConnect},
		{"eyeballs join", layered("eyeballs", errors.Join(
			fmt.Errorf("2001:db8::1: %w", opErr("dial", syscall.ECONNREFUSED)),
			fmt.Errorf("192.0.2.1: %w", opErr("dial", syscall.ECONNREFUSED)),
		)), netsim.ErrConnect},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify(%v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
}
