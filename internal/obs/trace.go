package obs

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Trace records the attempt-level span tree of one query: transport opens
// a span per exchange attempt (each retry gets its own) with child spans
// for dial, TLS handshake and exchange. A trace exists only when a caller puts one in
// the context — with no trace, every span operation is a nil no-op, so
// the exchange path pays one context lookup and nothing else.
type Trace struct {
	mu   sync.Mutex
	root *Span
}

// Span is one timed phase of a trace. All methods are safe on a nil
// receiver (the no-trace case) and for concurrent use.
type Span struct {
	tr       *Trace
	name     string
	attrs    []string
	notes    []string
	start    time.Time
	end      time.Time
	children []*Span
}

// NewTrace starts a trace whose root span is named name.
func NewTrace(name string) *Trace {
	tr := &Trace{}
	tr.root = &Span{tr: tr, name: name, start: time.Now()}
	return tr
}

// Finish ends the root span.
func (t *Trace) Finish() { t.root.End() }

type spanKey struct{}

// ContextWithSpan returns a context carrying s as the current span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the current span, or nil when the context
// carries no trace.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartTrace starts a new trace and returns a context carrying its root
// span — the entry point for a traced query (dnsdig -trace).
func StartTrace(ctx context.Context, name string) (context.Context, *Trace) {
	tr := NewTrace(name)
	return ContextWithSpan(ctx, tr.root), tr
}

// StartSpan opens a child span under the context's current span,
// returning a context with the child current. With no trace in ctx it
// returns ctx unchanged and a nil span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.Start(name)
	return ContextWithSpan(ctx, sp), sp
}

// Annotate attaches a note to the context's current span; a no-op
// without a trace.
func Annotate(ctx context.Context, format string, args ...any) {
	SpanFromContext(ctx).Annotate(format, args...)
}

// Start opens and returns a child span.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, name: name, start: time.Now()}
	s.tr.mu.Lock()
	s.children = append(s.children, c)
	s.tr.mu.Unlock()
	return c
}

// End closes the span; the first End wins.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.tr.mu.Unlock()
}

// SetAttr attaches a key=value attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, key+"="+value)
	s.tr.mu.Unlock()
}

// Annotate attaches a free-form note.
func (s *Span) Annotate(format string, args ...any) {
	if s == nil {
		return
	}
	note := fmt.Sprintf(format, args...)
	s.tr.mu.Lock()
	s.notes = append(s.notes, note)
	s.tr.mu.Unlock()
}

// Render writes the span tree, one line per span with its attributes,
// duration, and notes:
//
//	query www.example.com A  12.4ms
//	└─ attempt (scheme=tls)  12.3ms
//	   ├─ dial  1.2ms
//	   ├─ tls-handshake  5.4ms
//	   └─ exchange  5.7ms
func (t *Trace) Render(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.root.renderLocked(w, "", "")
}

// String renders the tree to a string.
func (t *Trace) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// renderLocked writes this span and its subtree. Callers hold t.tr.mu.
func (s *Span) renderLocked(w io.Writer, prefix, childPrefix string) {
	attrs := ""
	if len(s.attrs) > 0 {
		attrs = " (" + strings.Join(s.attrs, " ") + ")"
	}
	dur := "…"
	if !s.end.IsZero() {
		dur = fmt.Sprintf("%.2fms", float64(s.end.Sub(s.start))/float64(time.Millisecond))
	}
	fmt.Fprintf(w, "%s%s%s  %s\n", prefix, s.name, attrs, dur)
	for _, note := range s.notes {
		fmt.Fprintf(w, "%s· %s\n", childPrefix, note)
	}
	for i, c := range s.children {
		connector, extend := "├─ ", "│  "
		if i == len(s.children)-1 {
			connector, extend = "└─ ", "   "
		}
		c.renderLocked(w, childPrefix+connector, childPrefix+extend)
	}
}
