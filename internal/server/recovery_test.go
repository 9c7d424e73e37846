package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/lppm"
	"repro/internal/rng"
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

// startJournaled builds a journaled gateway in dir (a fresh temp dir when
// empty) behind a server, mounted on a test listener torn down with the
// test, and returns the gateway and a client.
func startJournaled(t *testing.T, cfg service.Config, jc service.JournalConfig) (*service.Gateway, *client.Client) {
	t.Helper()
	if jc.Dir == "" {
		jc.Dir = t.TempDir()
	}
	gw, info, err := service.Recover(context.Background(), cfg, jc)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Gateway: gw, Seed: cfg.Seed, Recovery: info})
	if err != nil {
		t.Fatal(err)
	}
	return gw, startServer(t, srv)
}

// resume calls /v1/resume and fails the test on an error.
func resume(t *testing.T, cl *client.Client, user string, delivered uint64) client.ResumeInfo {
	t.Helper()
	info, err := cl.Resume(context.Background(), user, delivered)
	if err != nil {
		t.Fatalf("resume %s at %d: %v", user, delivered, err)
	}
	return info
}

// wantGone asserts that /v1/resume answers 410 for the gap.
func wantGone(t *testing.T, cl *client.Client, user string, delivered uint64, why string) {
	t.Helper()
	var apiErr *client.APIError
	if _, err := cl.Resume(context.Background(), user, delivered); !errors.As(err, &apiErr) || apiErr.Status != http.StatusGone {
		t.Errorf("resume %s at %d (%s): %v, want 410", user, delivered, why, err)
	}
}

// sameRecords fails the test unless got and want match record for record,
// bit for bit.
func sameRecords(t *testing.T, what string, got, want []trace.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d is %v, want %v (exact bit-identity required)", what, i, got[i], want[i])
		}
	}
}

// TestResumeEndpoint: POST /v1/resume reports where a user's stream
// resumes and rewinds it when output went undelivered; the regenerated
// windows are the bytes the stream first delivered. It refuses a user a
// connection still owns, and validates its input.
func TestResumeEndpoint(t *testing.T) {
	_, cl := startJournaled(t, journaledConfig(51), service.JournalConfig{})
	recs := makeRecords(1, 8) // u00: two full windows of 4
	got := streamAll(t, cl, recs)["u00"]
	if len(got) != 8 {
		t.Fatalf("streamed %d records, want 8", len(got))
	}

	if res := resume(t, cl, "u00", 8); !res.Known || res.Rewound || res.From != 8 || res.DurableIn != 8 || res.Skip != 0 {
		t.Errorf("everything delivered: %+v, want known from=8 durable_in=8 skip=0", res)
	}
	if res := resume(t, cl, "nobody", 0); res.Known || res.From != 0 {
		t.Errorf("unknown user: %+v, want known=false from=0", res)
	}
	// Two records of the second window never arrived: the stream rewinds
	// to the first window's checkpoint and the resend regenerates the
	// second window, whose first two records the client skips.
	if res := resume(t, cl, "u00", 6); !res.Rewound || res.From != 4 || res.Skip != 2 {
		t.Fatalf("undelivered output: %+v, want a rewind from 4 skipping 2", res)
	}
	sameRecords(t, "regenerated window", streamAll(t, cl, recs[4:])["u00"], got[4:])

	// A user a live connection owns is never rewound.
	st, err := cl.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Send(recs[0]); err != nil {
		t.Fatal(err)
	}
	var apiErr *client.APIError
	waitFor(t, "the owning connection", func() bool {
		_, err := cl.Resume(context.Background(), "u00", 8)
		return errors.As(err, &apiErr) && apiErr.Status == http.StatusConflict
	})
	_ = st.Close()

	// Input validation.
	for _, body := range []string{`{}`, `{"user":"u00","delivered":-1}`, `{"user":"u00","from":1}`} {
		resp, err := http.Post(cl.BaseURL()+"/v1/resume", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("resume body %s: %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestDeliveryGapGone: /v1/resume answers 410 when the gap can no longer
// be regenerated bit-identically — no ring entry reaches back to it, or a
// window inside it was protected under another deployment than the one
// serving — and rewinds a gap that lies after the swap.
func TestDeliveryGapGone(t *testing.T) {
	ctx := context.Background()
	t.Run("older than the ring", func(t *testing.T) {
		_, cl := startJournaled(t, journaledConfig(53), service.JournalConfig{})
		// Ten 4-record windows; the 8-entry ring holds windows 3..10,
		// whose outputs end at 12..40.
		recs := makeRecords(1, 40)
		got := streamAll(t, cl, recs)["u00"]
		wantGone(t, cl, "u00", 0, "the origin left the ring")
		wantGone(t, cl, "u00", 11, "window 3 is the oldest boundary")
		if res := resume(t, cl, "u00", 13); !res.Rewound || res.From != 12 || res.Skip != 1 {
			t.Fatalf("gap inside the ring: %+v, want a rewind from 12 skipping 1", res)
		}
		sameRecords(t, "regenerated windows", streamAll(t, cl, recs[12:])["u00"], got[12:])
	})
	t.Run("swap inside the gap", func(t *testing.T) {
		_, cl := startJournaled(t, journaledConfig(55), service.JournalConfig{})
		recs := makeRecords(1, 16)
		got := streamAll(t, cl, recs[:8])["u00"]
		if _, err := cl.Reconfigure(ctx, map[string]float64{lppm.EpsilonParam: 0.02}, nil); err != nil {
			t.Fatal(err)
		}
		got = append(got, streamAll(t, cl, recs[8:])["u00"]...)
		// Window 2 was protected under generation 0, windows 3 and 4
		// under generation 1, which serves.
		wantGone(t, cl, "u00", 4, "window 2 predates the swap")
		if res := resume(t, cl, "u00", 8); !res.Rewound || res.From != 8 || res.Skip != 0 {
			t.Fatalf("gap after the swap: %+v, want a rewind from 8", res)
		}
		sameRecords(t, "windows regenerated after the swap", streamAll(t, cl, recs[8:])["u00"], got[8:])
	})
}

// lossyFront serves a swappable server on one address and can make the
// first stream connection lose its output: once drop is set, what the
// server writes there is accepted and never delivered — windows emitted
// but not received, the gap a reconnect must close.
type lossyFront struct {
	cur     atomic.Pointer[server.Server]
	streams atomic.Int64
	drop    atomic.Bool
	ts      *httptest.Server
	cl      *client.Client
}

func newLossyFront(t *testing.T, srv *server.Server) *lossyFront {
	t.Helper()
	f := &lossyFront{}
	f.cur.Store(srv)
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/stream" && f.streams.Add(1) == 1 {
			w = &lossyWriter{ResponseWriter: w, drop: &f.drop}
		}
		f.cur.Load().ServeHTTP(w, r)
	}))
	f.cl = client.New(f.ts.URL)
	t.Cleanup(func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = f.cur.Load().Drain(dctx)
		f.ts.Close()
	})
	return f
}

// lossyWriter discards writes while drop is set.
type lossyWriter struct {
	http.ResponseWriter
	drop *atomic.Bool
}

func (w *lossyWriter) Write(b []byte) (int, error) {
	if w.drop.Load() {
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}

func (w *lossyWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *lossyWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// deliveryGap drives the delivery-gap scenario: a ResumableStream sends
// one window per user and receives it; the front then loses the next two
// windows per user, which the server emits and journals; cut breaks the
// stream; the rest of the input follows. The stream's whole output must
// equal a never-cut run and the batch path, bit for bit.
func deliveryGap(t *testing.T, seed int64, cut func(t *testing.T, f *lossyFront, dir string)) {
	cfg := journaledConfig(seed)
	const nUsers, perUser = 3, 16
	recs := makeRecords(nUsers, perUser)
	ref := streamAll(t, newEnv(t, cfg, nil).cl, recs)
	sameAsBatch(t, cfg, recs, ref)

	ctx := context.Background()
	dir := t.TempDir()
	gw, _, err := service.Recover(ctx, cfg, service.JournalConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Gateway: gw, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	f := newLossyFront(t, srv)
	rs, err := f.cl.ResumableStream(ctx, client.BackoffConfig{Base: time.Millisecond, Max: 10 * time.Millisecond, Retries: 500})
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
	send := func(recs []trace.Record) {
		t.Helper()
		for _, rec := range recs {
			if err := rs.Send(ctx, rec); err != nil {
				t.Fatal(err)
			}
		}
	}

	send(recs[:nUsers*4])
	waitFor(t, "the first window of every user", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return count == nUsers*4
	})
	f.drop.Store(true)
	send(recs[nUsers*4 : nUsers*12])
	waitFor(t, "two lost windows per user in the journal", func() bool {
		st := gw.Journal().State()
		for u := 0; u < nUsers; u++ {
			if us := st.Users[fmt.Sprintf("u%02d", u)]; us == nil || us.Windows < 3 {
				return false
			}
		}
		return true
	})
	mu.Lock()
	if count != nUsers*4 {
		t.Fatalf("%d records delivered through the lossy connection, want %d", count, nUsers*4)
	}
	mu.Unlock()
	cut(t, f, dir)
	send(recs[nUsers*12:])
	if err := rs.CloseSend(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(ref) {
		t.Fatalf("users: %d, want %d", len(got), len(ref))
	}
	for u, want := range ref {
		sameRecords(t, "user "+u+" across the gap", got[u], want)
	}
}

// sameAsBatch checks a per-user stream output against lppm's batch path
// under the same seed: geoi draws per record, so window splits and
// restarts cannot change a byte.
func sameAsBatch(t *testing.T, cfg service.Config, recs []trace.Record, got map[string][]trace.Record) {
	t.Helper()
	perUser := make(map[string][]trace.Record)
	for _, rec := range recs {
		perUser[rec.User] = append(perUser[rec.User], rec)
	}
	ds := trace.NewDataset()
	for u, rs := range perUser {
		tr, err := trace.NewTrace(u, rs)
		if err != nil {
			t.Fatal(err)
		}
		ds.Add(tr)
	}
	want, err := lppm.ProtectDatasetWith(ds, cfg.Mechanism, func(string) lppm.Params { return cfg.Params }, rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range want.Traces() {
		sameRecords(t, "user "+tr.User+" against the batch path", got[tr.User], tr.Records)
	}
}

// TestDeliveryGapLiveCut: the server stays up and the connection breaks
// after two windows per user were emitted but never received. The resume
// rewinds each stream to the last window the client holds and the resend
// regenerates the lost windows.
func TestDeliveryGapLiveCut(t *testing.T) {
	deliveryGap(t, 71, func(t *testing.T, f *lossyFront, _ string) {
		f.ts.CloseClientConnections()
	})
}

// TestDeliveryGapAcrossRestart: the same gap, but the server drains and a
// new one recovers from the journal before the client reconnects; the
// rewind replaces the recovered checkpoint.
func TestDeliveryGapAcrossRestart(t *testing.T) {
	deliveryGap(t, 73, func(t *testing.T, f *lossyFront, dir string) {
		ctx := context.Background()
		cfg := journaledConfig(73)
		dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := f.cur.Load().Drain(dctx); err != nil {
			t.Fatal(err)
		}
		gw, info, err := service.Recover(ctx, cfg, service.JournalConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if !info.Resumed || info.Users != 3 {
			t.Fatalf("recovery info: %+v, want resumed with 3 users", info)
		}
		srv, err := server.New(server.Config{Gateway: gw, Seed: cfg.Seed, Recovery: info})
		if err != nil {
			t.Fatal(err)
		}
		f.cur.Store(srv)
	})
}

// TestHealthzReportsJournalFailure: once a journal commit fails, /healthz
// answers 503 "degraded" with the journal's error — the process still
// protects, but nothing it emits becomes durable.
func TestHealthzReportsJournalFailure(t *testing.T) {
	fs := faultfs.New()
	gw, cl := startJournaled(t, journaledConfig(59), service.JournalConfig{Dir: "j", FS: fs})
	health := func() (int, string, string) {
		var h struct{ Status, Error string }
		code := getJSONRaw(t, cl.BaseURL()+"/healthz", &h)
		return code, h.Status, h.Error
	}
	if code, status, _ := health(); code != http.StatusOK || status != "ok" {
		t.Fatalf("healthz before the fault: %d %q", code, status)
	}
	fs.FailAt(2, faultfs.ModeError) // the next commit's write succeeds, its fsync fails
	streamAll(t, cl, makeRecords(1, 4))
	_ = gw.JournalBarrier() // the commit covering the window has run
	code, status, msg := health()
	if code != http.StatusServiceUnavailable || status != "degraded" || !strings.Contains(msg, faultfs.ErrInjected.Error()) {
		t.Fatalf("healthz after a failed fsync: %d %q %q, want 503 degraded with the journal error", code, status, msg)
	}
}

// TestResumeWithoutJournal: a journal-less server answers 404 on
// /v1/resume — resume-by-counter is the capability the journal adds.
func TestResumeWithoutJournal(t *testing.T) {
	env := newEnv(t, baseGatewayConfig(57), nil)
	var apiErr *client.APIError
	if _, err := env.cl.Resume(context.Background(), "u00", 0); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("resume: %v, want 404", err)
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
