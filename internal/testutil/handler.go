package testutil

import (
	"context"

	"encdns/internal/dnswire"
)

// HandlerFunc adapts a function to the dns53.Handler interface: the
// scripted servers of the protocol tests.
type HandlerFunc func(ctx context.Context, query *dnswire.Message) (*dnswire.Message, error)

// ServeDNS implements dns53.Handler.
func (f HandlerFunc) ServeDNS(ctx context.Context, query *dnswire.Message) (*dnswire.Message, error) {
	return f(ctx, query)
}
