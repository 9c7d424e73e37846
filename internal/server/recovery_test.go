package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/service"
	"repro/internal/trace"
)

// journaledConfig is the gateway shape the recovery tests share:
// small windows so restarts land between several flushes.
func journaledConfig(seed int64) service.Config {
	cfg := baseGatewayConfig(seed)
	cfg.Shards = 2
	cfg.FlushEvery = 4
	cfg.StageSize = 2
	return cfg
}

// getJSONRaw fetches url and decodes the JSON body, tolerating non-200
// (the status is returned for the caller to assert on).
func getJSONRaw(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestResumeAndReplayEndpoints: /v1/resume reports the journal's durable
// per-user counters and /v1/replay re-serves the retained protected
// windows byte-for-byte — the two halves of the client resume protocol.
func TestResumeAndReplayEndpoints(t *testing.T) {
	cfg := journaledConfig(51)
	gw, info, err := service.Recover(context.Background(), cfg, service.JournalConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Gateway: gw, Seed: cfg.Seed, Recovery: info})
	if err != nil {
		t.Fatal(err)
	}
	cl := startServer(t, srv)

	recs := makeRecords(1, 8) // u00: two full windows of 4
	got := streamAll(t, cl, recs)
	if len(got["u00"]) != 8 {
		t.Fatalf("streamed %d records, want 8", len(got["u00"]))
	}

	res, err := cl.Resume(context.Background(), "u00")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Known || res.In != 8 || res.Out != 8 || res.Windows != 2 {
		t.Errorf("resume: %+v, want known in=8 out=8 windows=2", res)
	}
	if res, err := cl.Resume(context.Background(), "nobody"); err != nil || res.Known {
		t.Errorf("unknown user: %+v, %v — want known=false, nil error", res, err)
	}

	// Replay re-serves the exact protected bytes the stream delivered.
	for _, from := range []uint64{0, 4, 6, 8} {
		gap, err := cl.Replay(context.Background(), "u00", from)
		if err != nil {
			t.Fatalf("replay from %d: %v", from, err)
		}
		want := got["u00"][from:]
		if len(gap) != len(want) {
			t.Fatalf("replay from %d: %d records, want %d", from, len(gap), len(want))
		}
		for i := range want {
			if gap[i] != want[i] {
				t.Errorf("replay from %d record %d: %v, want %v", from, i, gap[i], want[i])
			}
		}
	}

	// Parameter validation.
	base := srvBaseURL(t, cl)
	if code := getJSONRaw(t, base+"/v1/resume", nil); code != http.StatusBadRequest {
		t.Errorf("resume without user: %d, want 400", code)
	}
	if code := getJSONRaw(t, base+"/v1/replay?user=u00&from=x", nil); code != http.StatusBadRequest {
		t.Errorf("replay with bad from: %d, want 400", code)
	}
	if code := getJSONRaw(t, base+"/v1/replay?user=nobody&from=0", nil); code != http.StatusNotFound {
		t.Errorf("replay for unknown user: %d, want 404", code)
	}
}

// TestReplayRingBounded: a gap older than the retained ring answers 410
// Gone — the journal proves the records existed but no longer holds them.
func TestReplayRingBounded(t *testing.T) {
	cfg := journaledConfig(53)
	gw, _, err := service.Recover(context.Background(), cfg,
		service.JournalConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Gateway: gw, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	cl := startServer(t, srv)
	// Ten 4-record windows; the 8-window ring keeps output 8..39.
	streamAll(t, cl, makeRecords(1, 40))

	if _, err := cl.Replay(context.Background(), "u00", 8); err != nil {
		t.Errorf("replay inside the ring: %v", err)
	}
	var apiErr *client.APIError
	if _, err := cl.Replay(context.Background(), "u00", 0); !errors.As(err, &apiErr) || apiErr.Status != http.StatusGone {
		t.Errorf("replay past the ring: %v, want 410", err)
	}
}

// TestResumeWithoutJournal: a journal-less server answers 404 on both
// resume endpoints — resume-by-counter is the capability the journal adds.
func TestResumeWithoutJournal(t *testing.T) {
	env := newEnv(t, baseGatewayConfig(57), nil)
	var apiErr *client.APIError
	if _, err := env.cl.Resume(context.Background(), "u00"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("resume: %v, want 404", err)
	}
	if _, err := env.cl.Replay(context.Background(), "u00", 0); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("replay: %v, want 404", err)
	}
	if code := getJSONRaw(t, srvBaseURL(t, env.cl)+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz: %d, want 200", code)
	}
}

// srvBaseURL recovers the test server's base URL from the client (the
// helpers only hand back a client).
func srvBaseURL(t *testing.T, cl *client.Client) string {
	t.Helper()
	return cl.BaseURL()
}

// TestRecoveryUnderLiveTraffic is the end-to-end crash-safety story over
// HTTP: a client streams through a journaled server, the server drains
// and restarts from its journal mid-stream, the client's ResumableStream
// rides out the outage with backoff, and the full per-user output equals
// an uninterrupted run byte-for-byte.
func TestRecoveryUnderLiveTraffic(t *testing.T) {
	cfg := journaledConfig(99)
	const nUsers, perUser, cut = 3, 20, 8
	recs := makeRecords(nUsers, perUser)

	// Reference: the same traffic through a never-restarted server.
	ref := streamAll(t, newEnv(t, cfg, nil).cl, recs)

	// Live stack behind a swappable front, so the restarted server keeps
	// the same address the client reconnects to.
	dir := t.TempDir()
	ctx := context.Background()
	gw1, _, err := service.Recover(ctx, cfg, service.JournalConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := server.New(server.Config{Gateway: gw1, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	var cur atomic.Pointer[server.Server]
	cur.Store(srv1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = cur.Load().Drain(dctx)
		ts.Close()
	})
	cl := client.New(ts.URL)

	rs, err := cl.ResumableStream(ctx, client.BackoffConfig{
		Base:    time.Millisecond,
		Max:     10 * time.Millisecond,
		Retries: 500,
	})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	got := make(map[string][]trace.Record)
	count := 0
	recvDone := make(chan error, 1)
	go func() {
		for {
			rec, err := rs.Recv(ctx)
			if err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				recvDone <- err
				return
			}
			mu.Lock()
			got[rec.User] = append(got[rec.User], rec)
			count++
			mu.Unlock()
		}
	}()

	// Phase 1: the first cut records per user — window-aligned, so the
	// restart lands on a checkpoint boundary and bit-identity is exact.
	for _, rec := range recs[:nUsers*cut] {
		if err := rs.Send(ctx, rec); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "phase-1 delivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return count >= nUsers*cut
	})

	// Restart: drain the serving process, rebuild it from the journal,
	// swap it in at the same address.
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	if err := srv1.Drain(dctx); err != nil {
		cancel()
		t.Fatal(err)
	}
	cancel()
	gw2, info2, err := service.Recover(ctx, cfg, service.JournalConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Resumed || info2.Users != nUsers {
		t.Fatalf("recovery info: %+v, want resumed with %d users", info2, nUsers)
	}
	srv2, err := server.New(server.Config{Gateway: gw2, Seed: cfg.Seed, Recovery: info2})
	if err != nil {
		t.Fatal(err)
	}
	cur.Store(srv2)

	// /healthz now reports what the restart recovered.
	var health struct {
		Status   string                `json:"status"`
		Recovery *service.RecoveryInfo `json:"recovery"`
	}
	if code := getJSONRaw(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz after restart: %d", code)
	}
	if health.Recovery == nil || !health.Recovery.Resumed || health.Recovery.Users != nUsers {
		t.Errorf("healthz recovery: %+v, want resumed with %d users", health.Recovery, nUsers)
	}

	// Phase 2: the rest of the traffic. The first send hits the dead
	// connection, reconnects with backoff, resyncs against the journal
	// (nothing to re-send: everything so far is checkpointed) and
	// continues on the fresh process.
	for _, rec := range recs[nUsers*cut:] {
		if err := rs.Send(ctx, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.CloseSend(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	for u, want := range ref {
		if len(got[u]) != len(want) {
			t.Fatalf("user %s: %d records across the restart, want %d", u, len(got[u]), len(want))
		}
		for i := range want {
			if got[u][i] != want[i] {
				t.Fatalf("user %s record %d diverged across the restart: %v, want %v (exact bit-identity required)",
					u, i, got[u][i], want[i])
			}
		}
	}
	if len(got) != len(ref) {
		t.Fatalf("users: %d, want %d", len(got), len(ref))
	}
}

// TestResumableStreamBackoffSchedule pins the reconnect schedule: capped
// exponential delays recorded by an injected sleeper, a poisoned stream
// after the attempts are exhausted, and no further sleeping once dead.
func TestResumableStreamBackoffSchedule(t *testing.T) {
	cfg := baseGatewayConfig(61)
	gw, err := service.New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Gateway: gw, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(dctx)
	})
	ts := httptest.NewServer(srv)
	cl := client.New(ts.URL)

	var delays []time.Duration
	rs, err := cl.ResumableStream(context.Background(), client.BackoffConfig{
		Base:    10 * time.Millisecond,
		Max:     40 * time.Millisecond,
		Retries: 5,
		Sleep: func(ctx context.Context, d time.Duration) error {
			delays = append(delays, d)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Send(context.Background(), recs1(t)[0]); err != nil {
		t.Fatal(err)
	}

	// Kill the listener for good: every reconnect attempt must fail.
	ts.CloseClientConnections()
	ts.Close()

	var sendErr error
	waitFor(t, "send failure after listener death", func() bool {
		sendErr = rs.Send(context.Background(), recs1(t)[1])
		return sendErr != nil
	})
	want := []time.Duration{10, 20, 40, 40, 40}
	if len(delays) != len(want) {
		t.Fatalf("backoff slept %d times (%v), want %d", len(delays), delays, len(want))
	}
	for i, d := range want {
		if delays[i] != d*time.Millisecond {
			t.Errorf("delay %d: %v, want %v (min(Base<<n, Max))", i, delays[i], d*time.Millisecond)
		}
	}
	// Dead is dead: no new attempts, no new sleeps.
	if err := rs.Send(context.Background(), recs1(t)[2]); err == nil {
		t.Error("send on a poisoned stream succeeded")
	}
	if len(delays) != len(want) {
		t.Errorf("poisoned stream slept again: %v", delays)
	}
}

// recs1 is a tiny single-user record set for the backoff test.
func recs1(t *testing.T) []trace.Record {
	t.Helper()
	out := makeRecords(1, 3)
	if len(out) != 3 {
		t.Fatal("makeRecords shape changed")
	}
	return out
}

// TestResumableStreamJournalLessFallback: against a server with no
// journal, the helper still reconnects (full resend + count dedupe) —
// degraded but functional, and explicitly not bit-identical.
func TestResumableStreamJournalLessFallback(t *testing.T) {
	cfg := journaledConfig(63)
	gw1, err := service.New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := server.New(server.Config{Gateway: gw1, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	var cur atomic.Pointer[server.Server]
	cur.Store(srv1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = cur.Load().Drain(dctx)
		ts.Close()
	})
	cl := client.New(ts.URL)

	rs, err := cl.ResumableStream(context.Background(), client.BackoffConfig{
		Base: time.Millisecond, Max: 10 * time.Millisecond, Retries: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(1, 8)
	var mu sync.Mutex
	var got []trace.Record
	recvDone := make(chan error, 1)
	go func() {
		for {
			rec, err := rs.Recv(context.Background())
			if err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				recvDone <- err
				return
			}
			mu.Lock()
			got = append(got, rec)
			mu.Unlock()
		}
	}()
	for _, rec := range recs[:4] {
		if err := rs.Send(context.Background(), rec); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "first window", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 4
	})

	// Restart without a journal: server state is lost.
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := srv1.Drain(dctx); err != nil {
		cancel()
		t.Fatal(err)
	}
	cancel()
	gw2, err := service.New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := server.New(server.Config{Gateway: gw2, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	cur.Store(srv2)

	for _, rec := range recs[4:] {
		if err := rs.Send(context.Background(), rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.CloseSend(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}
	// Count semantics, not bit-identity: every input index surfaces
	// exactly once despite the full resend (the dedupe drops the 4
	// re-protections of already-delivered records).
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(recs) {
		t.Fatalf("delivered %d records, want %d (count dedupe)", len(got), len(recs))
	}
	for i, rec := range got {
		if rec.Time != recs[i].Time {
			t.Errorf("record %d: time %v, want %v (order by input index)", i, rec.Time, recs[i].Time)
		}
	}
}
