// Package doh implements DNS-over-HTTPS (RFC 8484): a server handler that
// speaks both the binary application/dns-message wire (GET and POST) and
// the application/dns-json dialect popularised by Google and Cloudflare,
// plus the client's half of a POST-only exchange on a connection of its
// own, which transport's https:// attempt dials and handshakes. DoH is
// the protocol the paper measures: it rides ordinary HTTPS on port 443,
// which is what made it deployable in browsers — and hard for networks to
// block selectively.
package doh

import (
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"encdns/internal/bufpool"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/obs"
)

// DefaultPath is the conventional DoH endpoint path from RFC 8484.
const DefaultPath = "/dns-query"

// ContentType is the RFC 8484 media type.
const ContentType = "application/dns-message"

// JSONContentType is the Google/Cloudflare JSON dialect media type.
const JSONContentType = "application/dns-json"

// maxPOSTBody bounds request bodies; DNS messages cannot exceed 64 KiB.
const maxPOSTBody = dnswire.MaxMessageSize

// Handler serves RFC 8484 DoH over an underlying DNS handler. It
// implements http.Handler; mount it at DefaultPath on any mux.
type Handler struct {
	// DNS answers the decoded queries.
	DNS dns53.Handler
}

// Server-side DoH instruments, split by HTTP method so GET (cacheable)
// and POST traffic read separately at /metrics. ServeHTTP records each
// request; the HTTP/2 loop records what it answers inline once per burst
// (h2Conn.flush).
var (
	serverRequestsGET = obs.Default().Counter("doh_server_requests_total",
		"DoH requests served.", "method", "GET")
	serverRequestsPOST = obs.Default().Counter("doh_server_requests_total",
		"DoH requests served.", "method", "POST")
	serverErrors = obs.Default().Counter("doh_server_errors_total",
		"DoH requests answered with an HTTP error status.")
	serverLatency = obs.Default().Histogram("doh_server_seconds",
		"DoH request latency end to end (decode, resolve, encode); for requests the HTTP/2 loop answers inline, the mean of their burst, read to write.", obs.ServerBounds)
)

// dnsMessageType is the Content-Type value of every wire-format response;
// header maps share the one slice.
var dnsMessageType = []string{ContentType}

// ServeHTTP implements http.Handler per RFC 8484 §4.1 (and the JSON
// dialect when the request asks for it via Accept or the ct parameter).
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := h.serve(w, r)
	serverLatency.ObserveDuration(time.Since(start))
	if status >= http.StatusBadRequest {
		serverErrors.Inc()
	}
}

// serve answers one request and returns the status it answered with.
func (h *Handler) serve(w http.ResponseWriter, r *http.Request) int {
	switch r.Method {
	case http.MethodGet:
		serverRequestsGET.Inc()
		q := r.URL.Query()
		if wantsJSON(r, q) {
			return h.serveJSON(w, r, q)
		}
		return h.serveGET(w, r, q)
	case http.MethodPost:
		serverRequestsPOST.Inc()
		return h.servePOST(w, r)
	}
	w.Header().Set("Allow", "GET, POST")
	return httpError(w, "method not allowed", http.StatusMethodNotAllowed)
}

func httpError(w http.ResponseWriter, msg string, status int) int {
	http.Error(w, msg, status)
	return status
}

func wantsJSON(r *http.Request, q url.Values) bool {
	return q.Get("ct") == JSONContentType ||
		strings.Contains(r.Header.Get("Accept"), JSONContentType) ||
		(q.Has("name") && !q.Has("dns"))
}

func (h *Handler) serveGET(w http.ResponseWriter, r *http.Request, q url.Values) int {
	b64 := q.Get("dns")
	if b64 == "" {
		return httpError(w, "missing dns parameter", http.StatusBadRequest)
	}
	wire, err := base64.RawURLEncoding.DecodeString(b64)
	if err != nil {
		return httpError(w, "invalid base64url in dns parameter", http.StatusBadRequest)
	}
	return h.answerWire(w, r, wire)
}

func (h *Handler) servePOST(w http.ResponseWriter, r *http.Request) int {
	ct := r.Header.Get("Content-Type")
	if ct != "" && !strings.HasPrefix(ct, ContentType) {
		return httpError(w, "unsupported media type", http.StatusUnsupportedMediaType)
	}
	bp := bufpool.Get()
	defer bufpool.Put(bp)
	wire, err := readAllInto((*bp)[:0], r.Body, maxPOSTBody)
	*bp = wire
	if err == errBodyTooLarge {
		return httpError(w, "message too large", http.StatusRequestEntityTooLarge)
	}
	if err != nil {
		return httpError(w, "reading body", http.StatusBadRequest)
	}
	return h.answerWire(w, r, wire)
}

func (h *Handler) answerWire(w http.ResponseWriter, r *http.Request, wire []byte) int {
	// Parse into a pooled message: handlers hand back fresh responses and
	// retain only interned name strings from the query, so its records can
	// be recycled once the response bytes are handed to the HTTP layer.
	query := dnswire.AcquireMessage()
	defer dnswire.ReleaseMessage(query)
	if err := dns53.UnpackQuery(query, wire); err != nil {
		return httpError(w, "malformed DNS message", http.StatusBadRequest)
	}
	bp := bufpool.Get()
	defer bufpool.Put(bp)
	// A handler failure is already the SERVFAIL in out: HTTP status 200.
	out, minTTL, _ := dns53.Answer(r.Context(), h.DNS, (*bp)[:0], query, wire, dnswire.MaxMessageSize)
	*bp = out
	// One string and one slice hold both numeric header values.
	var scratch [40]byte
	b := strconv.AppendInt(scratch[:0], int64(len(out)), 10)
	n := len(b)
	if minTTL >= 0 {
		b = strconv.AppendInt(append(b, "max-age="...), minTTL, 10)
	}
	text := string(b)
	values := []string{text[:n], text[n:]}
	hdr := w.Header()
	hdr["Content-Type"] = dnsMessageType
	hdr["Content-Length"] = values[:1:1]
	// RFC 8484 §5.1: cache lifetime is the minimum TTL of the answer.
	if minTTL >= 0 {
		hdr["Cache-Control"] = values[1:]
	}
	// ResponseWriter.Write copies into the HTTP layer's own buffer, so the
	// pooled frame can be recycled as soon as this returns.
	_, _ = w.Write(out)
	return http.StatusOK
}

// jsonQuestion, jsonAnswer, and jsonResponse mirror the Google/Cloudflare
// resolve API schema.
type jsonQuestion struct {
	Name string `json:"name"`
	Type uint16 `json:"type"`
}

type jsonAnswer struct {
	Name string `json:"name"`
	Type uint16 `json:"type"`
	TTL  uint32 `json:"TTL"`
	Data string `json:"data"`
}

type jsonResponse struct {
	Status   uint16         `json:"Status"`
	TC       bool           `json:"TC"`
	RD       bool           `json:"RD"`
	RA       bool           `json:"RA"`
	AD       bool           `json:"AD"`
	CD       bool           `json:"CD"`
	Question []jsonQuestion `json:"Question"`
	Answer   []jsonAnswer   `json:"Answer,omitempty"`
}

func (h *Handler) serveJSON(w http.ResponseWriter, r *http.Request, q url.Values) int {
	name := q.Get("name")
	if name == "" {
		return httpError(w, "missing name parameter", http.StatusBadRequest)
	}
	if err := dnswire.ValidateName(name); err != nil {
		return httpError(w, "invalid name", http.StatusBadRequest)
	}
	qtype := dnswire.TypeA
	if ts := q.Get("type"); ts != "" {
		if t, ok := dnswire.ParseType(strings.ToUpper(ts)); ok {
			qtype = t
		} else if n, err := strconv.ParseUint(ts, 10, 16); err == nil {
			qtype = dnswire.Type(n)
		} else {
			return httpError(w, "invalid type", http.StatusBadRequest)
		}
	}
	query := dnswire.NewQuery(0, name, qtype)
	// Needs the message, not its bytes, so it cannot go through
	// dns53.Answer; it shares the containment the miss half runs under.
	resp, err := dns53.ServeContained(r.Context(), h.DNS, query)
	if err != nil {
		resp = query.Reply()
		resp.Header.RCode = dnswire.RCodeServFail
	}
	jr := jsonResponse{
		Status: uint16(resp.Header.RCode),
		TC:     resp.Header.TC, RD: resp.Header.RD, RA: resp.Header.RA,
		AD: resp.Header.AD, CD: resp.Header.CD,
	}
	for _, q := range resp.Questions {
		jr.Question = append(jr.Question, jsonQuestion{Name: q.Name, Type: uint16(q.Type)})
	}
	for _, a := range resp.Answers {
		jr.Answer = append(jr.Answer, jsonAnswer{
			Name: a.Name, Type: uint16(a.Type), TTL: a.TTL, Data: a.Data.String(),
		})
	}
	w.Header().Set("Content-Type", JSONContentType)
	// Once the status line is out a failed write has nobody to go to.
	_ = json.NewEncoder(w).Encode(jr)
	return http.StatusOK
}
