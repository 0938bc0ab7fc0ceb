package dialer

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// Spec is one parsed layer of a chain prefix. The grammar is
// "name" or "name:arg" per layer, layers joined by "|", leftmost layer
// nearest the wire:
//
//	split:3|tlsfrag:sni|tls://9.9.9.9:853
//
// dials the endpoint, fragments the ClientHello in the middle of the
// SNI, and splits the first resulting write after 3 bytes.
//
// Vocabulary:
//
//	split:N          split the first write after N bytes (N ≥ 1)
//	tlsfrag:sni      fragment the first TLS record mid-SNI
//	tlsfrag:N        fragment the first TLS record at payload byte N
//	delay:DUR        sleep DUR before the first write
//	delay:DUR:every  sleep DUR before every write ("looped" delay)
type Spec struct {
	// Name is the layer name ("split", "tlsfrag", "delay").
	Name string
	// Arg is the raw argument after the first colon ("" when absent).
	Arg string
}

// String renders the spec back in grammar form.
func (s Spec) String() string {
	if s.Arg == "" {
		return s.Name
	}
	return s.Name + ":" + s.Arg
}

// ParseSpecs parses a chain prefix — the part of an endpoint spec before
// the final "|"-separated element — into its layers. An empty string
// yields no layers. Each layer is validated here so endpoint parsing
// fails fast rather than at dial time.
func ParseSpecs(chain string) ([]Spec, error) {
	chain = strings.TrimSpace(chain)
	if chain == "" {
		return nil, nil
	}
	parts := strings.Split(chain, "|")
	specs := make([]Spec, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("dialer: empty layer in chain %q", chain)
		}
		name, arg, _ := strings.Cut(part, ":")
		s := Spec{Name: name, Arg: arg}
		if err := s.validate(); err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// FormatSpecs renders layers back into the "a|b|c" chain-prefix form.
func FormatSpecs(specs []Spec) string {
	if len(specs) == 0 {
		return ""
	}
	parts := make([]string, len(specs))
	for i, s := range specs {
		parts[i] = s.String()
	}
	return strings.Join(parts, "|")
}

// validate checks the layer name and argument.
func (s Spec) validate() error {
	switch s.Name {
	case "split":
		n, err := strconv.Atoi(s.Arg)
		if err != nil || n < 1 {
			return fmt.Errorf("dialer: split wants a positive byte count, got %q", s.Arg)
		}
	case "tlsfrag":
		if s.Arg == "sni" {
			return nil
		}
		n, err := strconv.Atoi(s.Arg)
		if err != nil || n < 1 {
			return fmt.Errorf("dialer: tlsfrag wants \"sni\" or a positive byte offset, got %q", s.Arg)
		}
	case "delay":
		dur, _, ok := splitDelayArg(s.Arg)
		if !ok || dur <= 0 {
			return fmt.Errorf("dialer: delay wants DURATION[:every], got %q", s.Arg)
		}
	default:
		return fmt.Errorf("dialer: unknown chain layer %q", s.Name)
	}
	return nil
}

// splitDelayArg parses "DUR" or "DUR:every".
func splitDelayArg(arg string) (d time.Duration, every bool, ok bool) {
	durPart, mode, hasMode := strings.Cut(arg, ":")
	if hasMode {
		if mode != "every" {
			return 0, false, false
		}
		every = true
	}
	dur, err := time.ParseDuration(durPart)
	if err != nil {
		return 0, false, false
	}
	return dur, every, true
}

// Wrap applies the chain layers to conn, the connection a base dial to
// the endpoint returned, and returns the outermost wrapper. Layers wrap
// in grammar order, so the leftmost layer sits nearest the wire
// (innermost): in "split:3|tlsfrag:sni|tls://…" the ClientHello is first
// rewritten into two TLS records by tlsfrag, and the split layer then
// cuts the first of those records into two segments. Read the chain
// right-to-left as the order layers touch outgoing bytes, left-to-right
// as proximity to the network. ctx is the dial's context: a delay layer
// sleeps under it. specs come from ParseSpecs, which has validated them.
func Wrap(ctx context.Context, specs []Spec, conn net.Conn) net.Conn {
	for _, s := range specs {
		switch s.Name {
		case "split":
			n, _ := strconv.Atoi(s.Arg)
			conn = &splitConn{Conn: conn, prefix: n}
		case "tlsfrag":
			at, _ := strconv.Atoi(s.Arg) // "sni" reads as 0: mid-SNI
			conn = &fragConn{Conn: conn, splitAt: at}
		case "delay":
			dur, every, _ := splitDelayArg(s.Arg)
			conn = &delayConn{Conn: conn, ctx: ctx, delay: dur, every: every}
		}
	}
	return conn
}
