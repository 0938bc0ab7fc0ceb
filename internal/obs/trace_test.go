package obs

import (
	"context"
	"strings"
	"testing"
)

func TestSpanNilSafety(t *testing.T) {
	var sp *Span
	// Every method must be a no-op on nil — the no-trace hot path.
	sp.End()
	sp.SetAttr("k", "v")
	sp.Annotate("note %d", 1)
	if sp.Start("child") != nil {
		t.Error("nil span started a non-nil child")
	}
	ctx := context.Background()
	if got := SpanFromContext(ctx); got != nil {
		t.Errorf("SpanFromContext(empty) = %v, want nil", got)
	}
	ctx2, sp2 := StartSpan(ctx, "x")
	if sp2 != nil {
		t.Error("StartSpan without a trace returned a span")
	}
	if ctx2 != ctx {
		t.Error("StartSpan without a trace changed the context")
	}
	Annotate(ctx, "no trace %s", "here") // must not panic
}

func TestTracePropagation(t *testing.T) {
	ctx, tr := StartTrace(context.Background(), "query example.com A")
	if SpanFromContext(ctx) != tr.root {
		t.Fatal("root span not current in the trace context")
	}
	attemptCtx, attempt := StartSpan(ctx, "attempt")
	attempt.SetAttr("scheme", "tls")
	if SpanFromContext(attemptCtx) != attempt {
		t.Fatal("child span not current in its context")
	}
	_, dial := StartSpan(attemptCtx, "dial")
	dial.End()
	_, hs := StartSpan(attemptCtx, "tls-handshake")
	hs.End()
	Annotate(attemptCtx, "retry: attempt %d", 2)
	attempt.End()
	tr.Finish()

	out := tr.String()
	for _, want := range []string{
		"query example.com A",
		"└─ attempt (scheme=tls)",
		"├─ dial",
		"└─ tls-handshake",
		"· retry: attempt 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "…") {
		t.Errorf("finished trace rendered an unfinished span:\n%s", out)
	}
}

func TestTraceRenderTree(t *testing.T) {
	tr := NewTrace("root")
	a := tr.root.Start("first")
	a.Start("nested").End()
	a.End()
	tr.root.Start("second").End()
	tr.Finish()
	out := tr.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "├─ first") {
		t.Errorf("line 1 = %q, want ├─ first...", lines[1])
	}
	if !strings.HasPrefix(lines[2], "│  └─ nested") {
		t.Errorf("line 2 = %q, want │  └─ nested...", lines[2])
	}
	if !strings.HasPrefix(lines[3], "└─ second") {
		t.Errorf("line 3 = %q, want └─ second...", lines[3])
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTrace("root")
	sp := tr.root.Start("once")
	sp.End()
	end := sp.end
	sp.End()
	if sp.end != end {
		t.Error("second End moved the span's end time")
	}
}
