package server_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/lppm"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/service"
	"repro/internal/trace"
)

var (
	srvT0   = time.Date(2008, 5, 17, 12, 0, 0, 0, time.UTC)
	srvBase = geo.Point{Lat: 37.7749, Lng: -122.4194}
)

// makeRecords builds nUsers interleaved streams of perUser records each in
// global time order — live-traffic shape.
func makeRecords(nUsers, perUser int) []trace.Record {
	recs := make([]trace.Record, 0, nUsers*perUser)
	for i := 0; i < perUser; i++ {
		for u := 0; u < nUsers; u++ {
			recs = append(recs, trace.Record{
				User:  fmt.Sprintf("u%02d", u),
				Time:  srvT0.Add(time.Duration(i) * time.Minute),
				Point: srvBase.Offset(float64(i)*50+float64(u)*10, float64(u)*100),
			})
		}
	}
	return recs
}

// testEnv is one running stack: gateway → server → httptest listener →
// client.
type testEnv struct {
	gw  *service.Gateway
	srv *server.Server
	ts  *httptest.Server
	cl  *client.Client
}

// newEnv builds the stack. mutate, when non-nil, adjusts the server config
// before construction. The environment is torn down with the test.
func newEnv(t *testing.T, gwCfg service.Config, mutate func(*server.Config)) *testEnv {
	t.Helper()
	gw, err := service.New(context.Background(), gwCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{Gateway: gw, Seed: gwCfg.Seed}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	env := &testEnv{gw: gw, srv: srv, ts: ts, cl: client.New(ts.URL)}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
		ts.Close()
	})
	return env
}

// startServer mounts a prebuilt server on a test listener and returns a
// client for it; teardown drains the server with the test.
func startServer(t *testing.T, srv *server.Server) *client.Client {
	t.Helper()
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
		ts.Close()
	})
	return client.New(ts.URL)
}

// streamAll sends every record on one stream and collects the full
// protected response, per user in arrival order.
func streamAll(t *testing.T, cl *client.Client, recs []trace.Record) map[string][]trace.Record {
	t.Helper()
	st, err := cl.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string][]trace.Record)
	done := make(chan error, 1)
	go func() {
		for {
			rec, err := st.Recv()
			if err == io.EOF {
				done <- nil
				return
			}
			if err != nil {
				done <- err
				return
			}
			got[rec.User] = append(got[rec.User], rec)
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
	return got
}

func baseGatewayConfig(seed int64) service.Config {
	return service.Config{
		Mechanism:  lppm.NewGeoIndistinguishability(),
		Params:     lppm.Params{lppm.EpsilonParam: 0.01},
		Shards:     3,
		FlushEvery: 8,
		StageSize:  4,
		Seed:       seed,
	}
}

// TestStreamRoundTrip: every record sent over /v1/stream comes back
// protected, per user in time order, including the partial tail window the
// end-of-stream flush must force out.
func TestStreamRoundTrip(t *testing.T) {
	env := newEnv(t, baseGatewayConfig(7), nil)
	recs := makeRecords(5, 21) // 21 % 8 != 0: tail windows are partial
	got := streamAll(t, env.cl, recs)
	if len(got) != 5 {
		t.Fatalf("received output for %d users, want 5", len(got))
	}
	for u, rs := range got {
		if len(rs) != 21 {
			t.Errorf("user %s: %d records, want 21", u, len(rs))
		}
		if !sort.SliceIsSorted(rs, func(i, j int) bool { return !rs[j].Time.Before(rs[i].Time) }) {
			t.Errorf("user %s output not in time order", u)
		}
	}
	st, err := env.cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Gateway.Ingested != 105 || st.Gateway.Emitted != 105 || st.Gateway.Dropped != 0 {
		t.Errorf("gateway stats %+v", st.Gateway)
	}
	if st.Server.StreamsTotal != 1 || st.Server.ActiveStreams != 0 {
		t.Errorf("server stats %+v", st.Server)
	}
}

// TestStreamSequentialConnectionsReuseUsers: a user released by one
// finished connection can stream again on a later one, and the per-user
// random stream continues (output differs from the first connection's).
func TestStreamSequentialConnectionsReuseUsers(t *testing.T) {
	env := newEnv(t, baseGatewayConfig(11), nil)
	recs := makeRecords(2, 8)
	first := streamAll(t, env.cl, recs)
	second := streamAll(t, env.cl, recs)
	if len(first["u00"]) != 8 || len(second["u00"]) != 8 {
		t.Fatalf("counts: first %d second %d, want 8 and 8", len(first["u00"]), len(second["u00"]))
	}
	same := 0
	for i := range first["u00"] {
		if first["u00"][i] == second["u00"][i] {
			same++
		}
	}
	if same == len(first["u00"]) {
		t.Error("second connection replayed the first's randomness; the user stream must continue")
	}
}

// TestUnaryProtectMatchesBatch: /v1/protect is the batch file path over
// the wire — same seed, same deployment, bit-identical records.
func TestUnaryProtectMatchesBatch(t *testing.T) {
	gwCfg := baseGatewayConfig(21)
	env := newEnv(t, gwCfg, nil)
	recs := makeRecords(4, 9)
	got, err := env.cl.Protect(context.Background(), recs)
	if err != nil {
		t.Fatal(err)
	}

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
	dep, err := core.NewDeployment(gwCfg.Mechanism, gwCfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dep.Protect(ds, rng.New(gwCfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	var flat []trace.Record
	for _, tr := range want.Traces() {
		flat = append(flat, tr.Records...)
	}
	if len(got) != len(flat) {
		t.Fatalf("protect returned %d records, want %d", len(got), len(flat))
	}
	for i := range flat {
		if got[i] != flat[i] {
			t.Fatalf("record %d diverged from the batch path: %v vs %v", i, got[i], flat[i])
		}
	}
}

// TestDeploymentAndManualReconfigure: /v1/deployment reflects the serving
// assignment, /v1/reconfigure hot-swaps it mid-stream without losing a
// record, and bad assignments are rejected with the old one left serving.
func TestDeploymentAndManualReconfigure(t *testing.T) {
	env := newEnv(t, baseGatewayConfig(31), nil)
	ctx := context.Background()

	dep, err := env.cl.Deployment(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Generation != 0 || dep.Mechanism != "geoi" || dep.Params["epsilon"] != 0.01 {
		t.Errorf("initial deployment %+v", dep)
	}

	// Hot-swap while a stream is live.
	st, err := env.cl.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(2, 16)
	half := len(recs) / 2
	var recvN atomic.Int64
	done := make(chan error, 1)
	go func() {
		for {
			_, err := st.Recv()
			if err == io.EOF {
				done <- nil
				return
			}
			if err != nil {
				done <- err
				return
			}
			recvN.Add(1)
		}
	}()
	for _, rec := range recs[:half] {
		if err := st.Send(rec); err != nil {
			t.Fatal(err)
		}
	}
	gen, err := env.cl.Reconfigure(ctx, map[string]float64{"epsilon": 0.5},
		map[string]map[string]float64{"u00": {"epsilon": 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Errorf("reconfigure returned generation %d, want 1", gen)
	}
	for _, rec := range recs[half:] {
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
	if n := recvN.Load(); n != int64(len(recs)) {
		t.Errorf("received %d records across the swap, want %d", n, len(recs))
	}

	dep, err = env.cl.Deployment(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Generation != 1 || dep.Params["epsilon"] != 0.5 || dep.Overrides["u00"]["epsilon"] != 0.9 {
		t.Errorf("post-swap deployment %+v", dep)
	}
	stats, err := env.cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Gateway.Dropped != 0 || stats.Gateway.Swaps != 1 {
		t.Errorf("post-swap gateway stats %+v", stats.Gateway)
	}

	// Invalid assignments must be rejected and leave the old one serving.
	if _, err := env.cl.Reconfigure(ctx, map[string]float64{"epsilonn": 0.1}, nil); err == nil {
		t.Error("misspelled parameter accepted")
	}
	var apiErr *client.APIError
	if _, err := env.cl.Reconfigure(ctx, map[string]float64{"epsilon": -4}, nil); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("out-of-range parameter: got %v, want 400", err)
	}
	if dep, err = env.cl.Deployment(ctx); err != nil || dep.Generation != 1 {
		t.Errorf("rejected reconfigure moved the deployment: %+v, %v", dep, err)
	}
}

// TestAdmissionMaxStreams: the concurrent-stream cap answers 503 and a
// finished stream frees its slot.
func TestAdmissionMaxStreams(t *testing.T) {
	env := newEnv(t, baseGatewayConfig(41), func(c *server.Config) { c.MaxStreams = 1 })
	ctx := context.Background()
	st, err := env.cl.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var apiErr *client.APIError
	if _, err := env.cl.Stream(ctx); !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("second stream: got %v, want 503", err)
	}
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != io.EOF {
		t.Fatalf("empty stream must end with EOF, got %v", err)
	}
	// The slot is released once the first handler returns.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st2, err := env.cl.Stream(ctx)
		if err == nil {
			st2.CloseSend()
			for {
				if _, err := st2.Recv(); err != nil {
					break
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream slot never freed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stats, err := env.cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Server.StreamsRejected == 0 {
		t.Error("rejection not counted")
	}
}

// TestAdmissionRateLimit: per-tenant token buckets answer 429 — and only
// for the exhausted tenant.
func TestAdmissionRateLimit(t *testing.T) {
	env := newEnv(t, baseGatewayConfig(43), func(c *server.Config) {
		c.RatePerSec = 0.001 // refill ~1 token / 1000 s: effectively burst-only
		c.Burst = 2
	})
	ctx := context.Background()
	limited := client.New(env.ts.URL, client.WithTenant("tenant-a"))
	for i := 0; i < 2; i++ {
		if _, err := limited.Stats(ctx); err != nil {
			t.Fatalf("request %d within burst refused: %v", i, err)
		}
	}
	var apiErr *client.APIError
	if _, err := limited.Stats(ctx); !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("past-burst request: got %v, want 429", err)
	}
	other := client.New(env.ts.URL, client.WithTenant("tenant-b"))
	if _, err := other.Stats(ctx); err != nil {
		t.Errorf("other tenant throttled too: %v", err)
	}
	st, err := other.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.RateLimited == 0 {
		t.Error("rate-limit rejection not counted")
	}
}

// TestStreamUserConflict: a user already streaming on one connection is
// refused on another, which still receives (and keeps) its own users'
// output.
func TestStreamUserConflict(t *testing.T) {
	env := newEnv(t, baseGatewayConfig(47), nil)
	ctx := context.Background()
	st1, err := env.cl.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := st1.Send(trace.Record{User: "shared", Time: srvT0, Point: srvBase}); err != nil {
		t.Fatal(err)
	}
	// Send returns once the pipe takes the bytes, not once the server has
	// read them. The server claims a record's user before ingesting it, so
	// a counted ingest means st1 owns "shared" before st2 starts.
	for deadline := time.Now().Add(10 * time.Second); env.gw.Stats().Ingested == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the first stream's record never reached the gateway")
		}
	}
	st2, err := env.cl.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Own user first, then the conflicting one.
	if err := st2.Send(trace.Record{User: "mine", Time: srvT0, Point: srvBase}); err != nil {
		t.Fatal(err)
	}
	if err := st2.Send(trace.Record{User: "shared", Time: srvT0.Add(time.Minute), Point: srvBase}); err != nil {
		t.Fatal(err)
	}
	st2.CloseSend()
	gotMine := 0
	var streamErr error
	for {
		rec, err := st2.Recv()
		if err != nil {
			if err != io.EOF {
				streamErr = err
			}
			break
		}
		if rec.User == "mine" {
			gotMine++
		}
	}
	if streamErr == nil || !strings.Contains(streamErr.Error(), "already streaming") {
		t.Errorf("conflicting stream ended with %v, want an ownership error", streamErr)
	}
	if gotMine != 1 {
		t.Errorf("conflicting connection received %d of its own records, want 1", gotMine)
	}
	// The first connection still owns the user and finishes normally.
	if err := st1.CloseSend(); err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		rec, err := st1.Recv()
		if err != nil {
			if err != io.EOF {
				t.Fatalf("first stream ended with %v", err)
			}
			break
		}
		if rec.User == "shared" {
			got++
		}
	}
	if got != 1 {
		t.Errorf("owner received %d records, want 1", got)
	}
}

// TestStreamMalformedInput: bad bytes on the wire end the stream with an
// error in the trailer — never a hang, never a panic (the fuzz targets in
// internal/trace cover the codec itself).
func TestStreamMalformedInput(t *testing.T) {
	env := newEnv(t, baseGatewayConfig(53), nil)
	resp, err := http.Post(env.ts.URL+"/v1/stream", "application/x-ndjson",
		strings.NewReader("{\"user\":\"u\",\"ts\":1,\"lat\":1,\"lng\":2}\nnot json at all\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	if msg := resp.Trailer.Get("X-Stream-Error"); msg == "" {
		t.Error("malformed input produced no trailer error")
	}
}

// TestGracefulDrainDeliversTail is the drain contract: records pending in
// partial windows when the server drains are flushed exactly once and
// delivered to the still-connected client before its response ends.
func TestGracefulDrainDeliversTail(t *testing.T) {
	gwCfg := baseGatewayConfig(59)
	gwCfg.FlushEvery = 100 // nothing flushes until the drain
	env := newEnv(t, gwCfg, nil)
	ctx := context.Background()
	st, err := env.cl.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(2, 3)
	for _, rec := range recs {
		if err := st.Send(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until everything is ingested, then drain with the client idle.
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats, err := env.cl.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Gateway.Ingested == uint64(len(recs)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("records never ingested: %+v", stats.Gateway)
		}
		time.Sleep(2 * time.Millisecond)
	}
	drainDone := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		drainDone <- env.srv.Drain(dctx)
	}()
	got := 0
	var endErr error
	for {
		_, err := st.Recv()
		if err != nil {
			if err != io.EOF {
				endErr = err
			}
			break
		}
		got++
	}
	if got != len(recs) {
		t.Errorf("drain delivered %d records, want %d", got, len(recs))
	}
	if endErr == nil || !strings.Contains(endErr.Error(), "draining") {
		t.Errorf("drained stream ended with %v, want a draining notice", endErr)
	}
	if err := <-drainDone; err != nil {
		t.Errorf("drain returned %v", err)
	}
	// Post-drain: health 503, new streams refused, gateway flushed
	// everything exactly once.
	if err := env.cl.Health(ctx); err == nil {
		t.Error("healthz still ok after drain")
	}
	var apiErr *client.APIError
	if _, err := env.cl.Stream(ctx); !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Errorf("post-drain stream: got %v, want 503", err)
	}
	stats, err := env.cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Gateway.Emitted != uint64(len(recs)) || stats.Gateway.Dropped != 0 {
		t.Errorf("post-drain gateway stats %+v", stats.Gateway)
	}
	if !stats.Server.Draining {
		t.Error("stats do not report draining")
	}
}

// parkedBodyWriters counts HTTP transport goroutines writing a request body
// that are blocked reading its pipe: a client stream's sending half.
func parkedBodyWriters() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	parked := 0
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "net/http.(*persistConn).writeLoop") && strings.Contains(g, "io.(*pipe).read") {
			parked++
		}
	}
	return parked
}

// TestServerEndedStreamReleasesBodyWriter: when the server ends a stream's
// response first (a drain) and the caller never calls CloseSend or Close,
// the transport's request-body writer must still exit with the response,
// and the sending half must fail instead of blocking or succeeding. The
// deadlines only bound a failure; a pass returns as soon as the writer is
// gone.
func TestServerEndedStreamReleasesBodyWriter(t *testing.T) {
	waitParked := func(what string, ok func(int) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for n := parkedBodyWriters(); !ok(n); n = parkedBodyWriters() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d transport body writers parked on a pipe", what, n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	before := parkedBodyWriters()
	env := newEnv(t, baseGatewayConfig(67), nil)
	ctx := context.Background()
	st, err := env.cl.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(2, 3)
	for _, rec := range recs {
		if err := st.Send(rec); err != nil {
			t.Fatal(err)
		}
	}
	// The open stream's writer is visible to the scan, so a pass below is
	// not a scan that matches nothing.
	waitParked("open stream", func(n int) bool { return n > before })
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats, err := env.cl.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Gateway.Ingested == uint64(len(recs)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("records never ingested: %+v", stats.Gateway)
		}
		time.Sleep(2 * time.Millisecond)
	}
	drainDone := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		drainDone <- env.srv.Drain(dctx)
	}()
	got := 0
	for {
		if _, err := st.Recv(); err != nil {
			break
		}
		got++
	}
	if got != len(recs) {
		t.Errorf("drain delivered %d records, want %d", got, len(recs))
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain returned %v", err)
	}
	waitParked("after the server ended the stream", func(n int) bool { return n <= before })
	if err := st.Send(recs[0]); err == nil {
		t.Error("Send after the server ended the stream succeeded")
	}
	if err := st.CloseSend(); err == nil {
		t.Error("CloseSend after the server ended the stream succeeded")
	}
}

// TestConcurrentStreamsPartitionUsers: many connections, disjoint users,
// all output attributed to the right connection — the multiplexing
// contract under concurrency.
func TestConcurrentStreamsPartitionUsers(t *testing.T) {
	env := newEnv(t, baseGatewayConfig(61), nil)
	const conns = 4
	const perUser = 19
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			users := []string{fmt.Sprintf("c%d-a", ci), fmt.Sprintf("c%d-b", ci)}
			var recs []trace.Record
			for i := 0; i < perUser; i++ {
				for _, u := range users {
					recs = append(recs, trace.Record{
						User:  u,
						Time:  srvT0.Add(time.Duration(i) * time.Minute),
						Point: srvBase.Offset(float64(i)*30, float64(ci)*200),
					})
				}
			}
			st, err := env.cl.Stream(context.Background())
			if err != nil {
				errs <- err
				return
			}
			got := make(map[string]int)
			done := make(chan error, 1)
			go func() {
				for {
					rec, err := st.Recv()
					if err == io.EOF {
						done <- nil
						return
					}
					if err != nil {
						done <- err
						return
					}
					got[rec.User]++
				}
			}()
			for _, rec := range recs {
				if err := st.Send(rec); err != nil {
					errs <- err
					return
				}
			}
			if err := st.CloseSend(); err != nil {
				errs <- err
				return
			}
			if err := <-done; err != nil {
				errs <- err
				return
			}
			for _, u := range users {
				if got[u] != perUser {
					errs <- fmt.Errorf("conn %d: user %s got %d records, want %d", ci, u, got[u], perUser)
					return
				}
			}
			if len(got) != len(users) {
				errs <- fmt.Errorf("conn %d: received records for %d users, want %d", ci, len(got), len(users))
				return
			}
			errs <- nil
		}(ci)
	}
	wg.Wait()
	for i := 0; i < conns; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestStalledReaderDoesNotWedgeServer: a client that sends records but
// never reads its response must not freeze the shared dispatcher — after
// the write-stall deadline its connection is abandoned, its windows are
// dropped, and other connections keep streaming.
func TestStalledReaderDoesNotWedgeServer(t *testing.T) {
	gwCfg := baseGatewayConfig(67)
	gwCfg.FlushEvery = 1 // every record is a window: pressure builds fast
	env := newEnv(t, gwCfg, func(c *server.Config) {
		c.WindowBuffer = 1
		c.WriteStallTimeout = 200 * time.Millisecond
	})

	// A raw stream whose response is never read: kernel buffers fill, the
	// writer stalls, the deadline abandons the connection.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, env.ts.URL+"/v1/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	go func() {
		rw, err := trace.NewRecordWriter(pw, trace.FormatJSONL)
		if err != nil {
			return
		}
		// A long user id fattens every request AND response record, so
		// the unread response (~16 MB) overflows the loopback socket
		// buffers and genuinely stalls the writer.
		staller := "staller-" + strings.Repeat("x", 2048)
		for i := 0; i < 8000; i++ {
			rec := trace.Record{
				User:  staller,
				Time:  srvT0.Add(time.Duration(i) * time.Second),
				Point: srvBase,
			}
			// Errors expected once the server abandons the connection.
			if rw.Write(rec) != nil || rw.Flush() != nil {
				return
			}
		}
		pw.Close()
	}()

	// Meanwhile a well-behaved stream must keep round-tripping.
	deadline := time.Now().Add(20 * time.Second)
	recs := makeRecords(1, 5)
	for i := range recs {
		recs[i].User = "polite"
	}
	for {
		got := streamAll(t, env.cl, recs)
		if len(got["polite"]) == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("well-behaved stream starved behind the stalled one")
		}
	}
	// The stalled connection's fate is visible in the counters: dropped
	// windows (dead client) — possibly orphaned ones flushed after its
	// users were released.
	ctx := context.Background()
	for {
		st, err := env.cl.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Server.DroppedWindows > 0 || st.Server.OrphanWindows > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled connection never abandoned: %+v", st.Server)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
