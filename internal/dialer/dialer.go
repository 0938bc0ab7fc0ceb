// Package dialer is the connection layer under internal/transport: small
// net.Conn wrappers that change how a connection's bytes reach a resolver
// endpoint — split first segments, fragment the TLS ClientHello, pace
// writes — independently of *which protocol* (Do53/DoT/DoH) is spoken
// over the connection. They play the part the Outline SDK's composable
// stream transports do.
//
// The paper's availability question ("does this encrypted resolver
// answer from here?") depends on exactly this seam on hostile or
// degraded networks: a DoT endpoint that is unreachable with a plain
// dial may answer perfectly well once the ClientHello no longer matches
// a middlebox's single-segment SNI filter. Chains make that a measurable
// axis instead of an accident of the local stack.
//
// The chain grammar ("split:3|tlsfrag:sni|…", see ParseSpecs) names the
// layers; Wrap applies them to the connection a base dial returned. A
// layer acts on the connection's writes, never on the dial itself: a
// failed dial is the base dial's error as it is, and a failed write
// carries the layer name via LayerError. VirtualNet is the other side of
// the seam: in-process connections past middlebox models that the
// chains are measured against.
package dialer

import (
	"errors"
	"fmt"
)

// LayerError marks a write failure with the chain layer that produced it
// ("split", "tlsfrag" or "delay"). transport.Classify unwraps it for the
// error taxonomy.
type LayerError struct {
	// Layer names the chain layer that failed.
	Layer string
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *LayerError) Error() string {
	return fmt.Sprintf("dialer: layer %s: %v", e.Layer, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *LayerError) Unwrap() error { return e.Err }

// layerErr wraps err with a layer label unless it is nil or already
// labelled (the innermost layer wins: it is the one that actually broke).
func layerErr(layer string, err error) error {
	if err == nil {
		return nil
	}
	var le *LayerError
	if errors.As(err, &le) {
		return err
	}
	return &LayerError{Layer: layer, Err: err}
}
