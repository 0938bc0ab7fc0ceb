// Package doh implements DNS-over-HTTPS (RFC 8484): a server handler that
// speaks both the binary application/dns-message wire (GET and POST) and
// the application/dns-json dialect popularised by Google and Cloudflare,
// plus a client with configurable HTTP method and connection reuse. DoH is
// the protocol the paper measures: it rides ordinary HTTPS on port 443,
// which is what made it deployable in browsers — and hard for networks to
// block selectively.
package doh

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
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
	// DisableJSON turns off the application/dns-json dialect.
	DisableJSON bool
}

// Server-side DoH instruments, split by HTTP method so GET (cacheable)
// and POST traffic read separately at /metrics.
var (
	serverRequestsGET = obs.Default().Counter("doh_server_requests_total",
		"DoH requests served.", "method", "GET")
	serverRequestsPOST = obs.Default().Counter("doh_server_requests_total",
		"DoH requests served.", "method", "POST")
	serverErrors = obs.Default().Counter("doh_server_errors_total",
		"DoH requests answered with an HTTP error status.")
	serverLatency = obs.Default().Histogram("doh_server_seconds",
		"DoH request latency end to end (decode, resolve, encode).", nil)
)

// statusRecorder captures the response status for the error counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler per RFC 8484 §4.1 (and the JSON
// dialect when the request asks for it via Accept or the ct parameter).
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	w = rec
	start := time.Now()
	defer func() {
		serverLatency.ObserveDuration(time.Since(start))
		if rec.status >= http.StatusBadRequest {
			serverErrors.Inc()
		}
	}()
	switch r.Method {
	case http.MethodGet:
		serverRequestsGET.Inc()
		if h.wantsJSON(r) {
			h.serveJSON(w, r)
			return
		}
		h.serveGET(w, r)
	case http.MethodPost:
		serverRequestsPOST.Inc()
		h.servePOST(w, r)
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (h *Handler) wantsJSON(r *http.Request) bool {
	if h.DisableJSON {
		return false
	}
	if r.URL.Query().Get("ct") == JSONContentType {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, JSONContentType) ||
		(r.URL.Query().Has("name") && !r.URL.Query().Has("dns"))
}

func (h *Handler) serveGET(w http.ResponseWriter, r *http.Request) {
	b64 := r.URL.Query().Get("dns")
	if b64 == "" {
		http.Error(w, "missing dns parameter", http.StatusBadRequest)
		return
	}
	wire, err := base64.RawURLEncoding.DecodeString(b64)
	if err != nil {
		http.Error(w, "invalid base64url in dns parameter", http.StatusBadRequest)
		return
	}
	h.answerWire(w, r, wire)
}

func (h *Handler) servePOST(w http.ResponseWriter, r *http.Request) {
	ct := r.Header.Get("Content-Type")
	if ct != "" && !strings.HasPrefix(ct, ContentType) {
		http.Error(w, "unsupported media type", http.StatusUnsupportedMediaType)
		return
	}
	bp := bufpool.Get()
	defer bufpool.Put(bp)
	wire, err := readAllInto((*bp)[:0], r.Body, maxPOSTBody)
	*bp = wire
	if err == errBodyTooLarge {
		http.Error(w, "message too large", http.StatusRequestEntityTooLarge)
		return
	}
	if err != nil {
		http.Error(w, "reading body", http.StatusBadRequest)
		return
	}
	h.answerWire(w, r, wire)
}

func (h *Handler) answerWire(w http.ResponseWriter, r *http.Request, wire []byte) {
	// Parse into a pooled message: handlers hand back fresh responses and
	// retain only interned name strings from the query, so its records can
	// be recycled once the response bytes are handed to the HTTP layer.
	query := dnswire.AcquireMessage()
	defer dnswire.ReleaseMessage(query)
	if err := query.Unpack(wire); err != nil {
		http.Error(w, "malformed DNS message", http.StatusBadRequest)
		return
	}
	bp := bufpool.Get()
	defer bufpool.Put(bp)
	// A handler failure is already the SERVFAIL in out: HTTP status 200.
	out, minTTL, _ := dns53.Answer(r.Context(), h.DNS, (*bp)[:0], query, wire, dnswire.MaxMessageSize)
	*bp = out
	w.Header().Set("Content-Type", ContentType)
	// RFC 8484 §5.1: cache lifetime is the minimum TTL of the answer.
	if minTTL >= 0 {
		w.Header().Set("Cache-Control", "max-age="+strconv.FormatInt(minTTL, 10))
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	// ResponseWriter.Write copies into the HTTP layer's own buffer, so the
	// pooled frame can be recycled as soon as this returns.
	_, _ = w.Write(out)
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

func (h *Handler) serveJSON(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		http.Error(w, "missing name parameter", http.StatusBadRequest)
		return
	}
	if err := dnswire.ValidateName(name); err != nil {
		http.Error(w, "invalid name", http.StatusBadRequest)
		return
	}
	qtype := dnswire.TypeA
	if ts := r.URL.Query().Get("type"); ts != "" {
		if t, ok := dnswire.ParseType(strings.ToUpper(ts)); ok {
			qtype = t
		} else if n, err := strconv.ParseUint(ts, 10, 16); err == nil {
			qtype = dnswire.Type(n)
		} else {
			http.Error(w, "invalid type", http.StatusBadRequest)
			return
		}
	}
	query := dnswire.NewQuery(0, name, qtype)
	resp, err := h.DNS.ServeDNS(r.Context(), query)
	if err != nil || resp == nil {
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
	enc := json.NewEncoder(w)
	if err := enc.Encode(jr); err != nil {
		// Headers are gone; nothing more to do.
		_ = fmt.Errorf("doh: encoding JSON response: %w", err)
	}
}
