package server_test

import (
	"context"
	"io"
	"net/http"
	"testing"

	"repro/internal/obs/tracing"
)

// findSpans filters a ring snapshot by name and trace ID.
func findSpans(spans []*tracing.SpanData, name string, trace tracing.TraceID) []*tracing.SpanData {
	var out []*tracing.SpanData
	for _, sp := range spans {
		if sp.Name == name && sp.Trace == trace {
			out = append(out, sp)
		}
	}
	return out
}

// awaitSpans returns the ended spans named name that keep accepts, once
// there is at least one. The server ends a request's http.* span after the
// handler returns, so the client can hold the whole response first.
func awaitSpans(t *testing.T, tr *tracing.Tracer, name string, keep func(*tracing.SpanData) bool) []*tracing.SpanData {
	t.Helper()
	var out []*tracing.SpanData
	waitFor(t, name+" span", func() bool {
		out = out[:0]
		for _, sp := range tr.Spans() {
			if sp.Name == name && keep(sp) {
				out = append(out, sp)
			}
		}
		return len(out) > 0
	})
	return out
}

func inTrace(trace tracing.TraceID) func(*tracing.SpanData) bool {
	return func(sp *tracing.SpanData) bool { return sp.Trace == trace }
}

// TestTraceparentPropagation is the end-to-end acceptance check: a
// client-originated trace injected as a traceparent header must reappear
// on the server's spans for the same stream — the HTTP span as a direct
// child, and the user's window/dispatch/write spans correlated through
// the gateway's user binding.
func TestTraceparentPropagation(t *testing.T) {
	gwCfg := baseGatewayConfig(61)
	tr := tracing.New(tracing.Config{})
	gwCfg.Tracer = tr
	env := newEnv(t, gwCfg, nil)

	remote := tracing.NewRootContext()
	ctx := tracing.ContextWithSpanContext(context.Background(), remote)
	st, err := env.cl.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(1, 16) // FlushEvery 8: two full windows
	done := make(chan error, 1)
	go func() {
		for {
			if _, err := st.Recv(); err != nil {
				if err == io.EOF {
					err = nil
				}
				done <- err
				return
			}
		}
	}()
	for _, rec := range recs {
		if err := st.Send(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	hs := awaitSpans(t, tr, "http.stream", inTrace(remote.Trace))
	spans := tr.Spans()
	if len(hs) != 1 {
		t.Fatalf("http.stream spans under client trace = %d, want 1", len(hs))
	} else if hs[0].Parent != remote.Span {
		t.Errorf("http.stream parented to %s, want client span %s", hs[0].Parent, remote.Span)
	}
	// The gateway bound the stream's trace to its user, so every flushed
	// window — and its dispatch/write children back on the server side —
	// carries the client's trace ID.
	windows := findSpans(spans, "window", remote.Trace)
	if len(windows) < 2 {
		t.Fatalf("window spans under client trace = %d, want >= 2", len(windows))
	}
	for _, name := range []string{"dispatch", "write"} {
		if len(findSpans(spans, name, remote.Trace)) < 2 {
			t.Errorf("%s spans under client trace = %d, want >= 2",
				name, len(findSpans(spans, name, remote.Trace)))
		}
	}

	// A unary endpoint joins the same machinery via its own header.
	remote2 := tracing.NewRootContext()
	if _, err := env.cl.Stats(tracing.ContextWithSpanContext(context.Background(), remote2)); err != nil {
		t.Fatal(err)
	}
	if hs := awaitSpans(t, tr, "http.stats", inTrace(remote2.Trace)); len(hs) != 1 {
		t.Fatalf("http.stats spans under client trace = %d, want 1", len(hs))
	}

	// A malformed header never errors: the server starts a fresh root.
	req, err := http.NewRequest("GET", env.ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(tracing.Header, "garbage")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with bad traceparent: %d", resp.StatusCode)
	}
	health := awaitSpans(t, tr, "http.healthz", func(*tracing.SpanData) bool { return true })
	if len(health) != 1 {
		t.Fatalf("http.healthz spans = %d, want 1", len(health))
	}
	if !health[0].Parent.IsZero() {
		t.Errorf("bad traceparent produced a parented span: %+v", health[0])
	}
}
