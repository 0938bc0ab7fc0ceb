// Package core is the measurement engine — the paper's primary
// contribution (§3: "we developed and released an open-source tool for
// measuring encrypted DNS performance"). It schedules continuous
// measurement rounds across vantage points and resolvers, issues DoH/DoT/
// Do53 queries and ICMP pings through an interchangeable Prober, records
// per-query outcomes, tracks availability, and writes results to JSON
// files exactly as §3.1 describes.
//
// Two probers are provided: SimProber drives the internal/netsim model
// (deterministic, virtual-time — used to regenerate the paper's figures)
// and internal/live's Prober drives the real protocol clients over real
// connections (used by the CLI against real servers and by the
// integration tests). Both produce identical Record values, so the
// analysis pipeline cannot tell them apart; core itself imports no
// network code.
package core

import (
	"encoding/json"
	"math"
	"strconv"
	"time"

	"encdns/internal/dnswire"
	"encdns/internal/netsim"
)

// Kind distinguishes record types in the result stream.
type Kind string

// Record kinds.
const (
	KindQuery Kind = "query"
	KindPing  Kind = "ping"
)

// Record is one measurement outcome, the unit the tool writes to its JSON
// result files. appendRecord encodes it by hand, in the order and with the
// omissions these tags give; FuzzRecordJSON holds the two together.
type Record struct {
	// Time is when the measurement started (virtual or wall clock).
	Time time.Time `json:"ts"`
	// Vantage is the measuring client's name.
	Vantage string `json:"vantage"`
	// Resolver is the probed resolver's hostname.
	Resolver string `json:"resolver"`
	// Kind is "query" or "ping".
	Kind Kind `json:"kind"`
	// Protocol is "doh", "dot", or "do53" for queries.
	Protocol string `json:"protocol,omitempty"`
	// Domain is the queried name for query records.
	Domain string `json:"domain,omitempty"`
	// Round is the measurement round index.
	Round int `json:"round"`
	// Milliseconds is the measured duration. For failed queries it is the
	// time until failure; for failed pings it is zero.
	Milliseconds float64 `json:"ms"`
	// OK reports success.
	OK bool `json:"ok"`
	// Error classifies failures ("connect-failure", "timeout", ...).
	Error string `json:"error,omitempty"`
	// RCode is the DNS response code name for answered queries.
	RCode string `json:"rcode,omitempty"`
}

// appendRecord appends r as one JSON Lines record: the bytes an
// encoding/json Encoder writes for it, without reflection. A value outside
// the fast path — a time RFC 3339 cannot represent, a NaN or infinite
// duration, a string that needs escaping — goes through encoding/json
// itself, so its rules, errors included, stay exact.
func appendRecord(b []byte, r *Record) ([]byte, error) {
	if math.IsNaN(r.Milliseconds) || math.IsInf(r.Milliseconds, 0) {
		return marshalRecord(b, *r)
	}
	ts, err := r.Time.AppendText(append(b, `{"ts":"`...))
	if err != nil {
		return marshalRecord(b, *r)
	}
	b = appendString(append(ts, '"'), `,"vantage":`, r.Vantage)
	b = appendString(b, `,"resolver":`, r.Resolver)
	b = appendString(b, `,"kind":`, string(r.Kind))
	b = appendOmitEmpty(b, `,"protocol":`, r.Protocol)
	b = appendOmitEmpty(b, `,"domain":`, r.Domain)
	b = strconv.AppendInt(append(b, `,"round":`...), int64(r.Round), 10)
	b = appendFloat(append(b, `,"ms":`...), r.Milliseconds)
	b = strconv.AppendBool(append(b, `,"ok":`...), r.OK)
	b = appendOmitEmpty(b, `,"error":`, r.Error)
	b = appendOmitEmpty(b, `,"rcode":`, r.RCode)
	return append(b, "}\n"...), nil
}

// marshalRecord is appendRecord's slow path. r is a copy, so that only
// this path pays for handing a record to encoding/json.
func marshalRecord(b []byte, r Record) ([]byte, error) {
	j, err := json.Marshal(r)
	if err != nil {
		return b, err
	}
	return append(append(b, j...), '\n'), nil
}

// appendString appends key, then s as encoding/json quotes it. Printable
// ASCII other than "\<>& is copied as it is; anything else is quoted by
// encoding/json.
func appendString(b []byte, key, s string) []byte {
	b = append(b, key...)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			j, _ := json.Marshal(s) // a string always marshals
			return append(b, j...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendOmitEmpty is appendString for an omitempty field.
func appendOmitEmpty(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(b, key, s)
}

// appendFloat appends a finite f as encoding/json does: the shortest
// decimal, in 'e' form below 1e-6 and from 1e21, with a negative
// exponent's leading zero dropped (e-07 becomes e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// QueryOutcome is a prober's result for one DNS query.
type QueryOutcome struct {
	Duration time.Duration
	Err      netsim.ErrClass
	RCode    dnswire.RCode
}

// PingOutcome is a prober's result for one ICMP exchange.
type PingOutcome struct {
	RTT time.Duration
	OK  bool
}

// Target identifies one resolver to a prober. Host names the resolver;
// Endpoint is the live DoH URL (or host:port for DoT/Do53); Net carries
// the simulation parameters.
type Target struct {
	Host     string
	Endpoint string
	Net      netsim.Endpoint
}
