package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/journal"
	"repro/internal/lppm"
	"repro/internal/model"
	"repro/internal/server/client"
	"repro/internal/trace"
)

// writeInput produces a small CSV stream of nUsers × perUser records.
func writeInput(t *testing.T, path string, nUsers, perUser int) int {
	t.Helper()
	var b strings.Builder
	b.WriteString("user,timestamp,lat,lng\n")
	n := 0
	for i := 0; i < perUser; i++ {
		for u := 0; u < nUsers; u++ {
			fmt.Fprintf(&b, "u%02d,%d,%.6f,%.6f\n", u, 1211025600+60*i,
				37.7749+float64(i)*0.0004, -122.4194+float64(u)*0.0003)
			n++
		}
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return n
}

func baseOpts(in, out string) serveOpts {
	return serveOpts{
		mechName: "geoi", params: lppm.Params{},
		inPath: in, outPath: out, formatName: "csv",
		shards: 2, flushEvery: 4, seed: 7,
	}
}

func TestRunRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.csv")
	out := filepath.Join(dir, "out.csv")
	n := writeInput(t, in, 5, 12)
	if err := run(lppm.NewRegistry(), baseOpts(in, out)); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := 0
	if err := trace.ScanRecords(f, trace.FormatCSV, func(trace.Record) error {
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Errorf("output carries %d records, want %d", got, n)
	}
}

// TestRunPropagatesWriteFailure is the exit-path audit's regression test:
// an output sink that fails mid-stream must surface as a non-nil error (a
// truncated -out file may never exit zero).
func TestRunPropagatesWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "in.csv")
	writeInput(t, in, 8, 40)
	if err := run(lppm.NewRegistry(), baseOpts(in, "/dev/full")); err == nil {
		t.Fatal("write failure to /dev/full exited clean")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.csv")
	if err := os.WriteFile(in, []byte("not,a,valid,header\nx,y,z,w\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(lppm.NewRegistry(), baseOpts(in, filepath.Join(dir, "out.csv"))); err == nil {
		t.Fatal("malformed input exited clean")
	}
}

func TestParseObjectives(t *testing.T) {
	obj, err := parseObjectives("privacy=0.25,utility=0.6")
	if err != nil {
		t.Fatal(err)
	}
	if obj.MaxPrivacy != 0.25 || obj.MinUtility != 0.6 {
		t.Errorf("parsed %+v", obj)
	}
	for _, bad := range []string{"privacy=x", "leakage=0.1", "privacy",
		"privacy=0.1", "utility=0.8"} { // partial specs would zero the other bound
		if _, err := parseObjectives(bad); err == nil {
			t.Errorf("parseObjectives(%q) accepted", bad)
		}
	}
}

// TestRunWithController smoke-tests the reconfiguration path end to end:
// the loop is wired, samples the stream, and the process still exits clean
// with every record protected.
func TestRunWithController(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.csv")
	out := filepath.Join(dir, "out.csv")
	n := writeInput(t, in, 6, 24)
	o := baseOpts(in, out)
	o.reconfEvery = 10 * time.Millisecond
	o.objectives = model.Objectives{MaxPrivacy: 0.10, MinUtility: 0.80}
	o.sampleFrac = 1
	if err := run(lppm.NewRegistry(), o); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := 0
	if err := trace.ScanRecords(f, trace.FormatCSV, func(trace.Record) error {
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Errorf("controller run emitted %d records, want %d", got, n)
	}
}

// TestRunRejectsBadFlags is the fail-fast audit: flag nonsense must
// surface as one validation error before any file or goroutine work.
func TestRunRejectsBadFlags(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.csv")
	writeInput(t, in, 2, 4)
	out := filepath.Join(dir, "out.csv")
	cases := []struct {
		name   string
		mutate func(*serveOpts)
		want   string
	}{
		{"negative queue", func(o *serveOpts) { o.queue = -1 }, "-queue"},
		{"negative flush", func(o *serveOpts) { o.flushEvery = -4 }, "-flush"},
		{"negative shards", func(o *serveOpts) { o.shards = -2 }, "-shards"},
		{"sample above one", func(o *serveOpts) { o.sampleFrac = 1.5 }, "-sample"},
		{"negative sample", func(o *serveOpts) { o.sampleFrac = -0.1 }, "-sample"},
		{"unknown format", func(o *serveOpts) { o.formatName = "xml" }, "-format"},
		{"negative reconfigure", func(o *serveOpts) { o.reconfEvery = -time.Second }, "-reconfigure-every"},
		{"negative rate limit", func(o *serveOpts) { o.rateLimit = -1 }, "-rate-limit"},
		{"negative burst", func(o *serveOpts) { o.burst = -1 }, "-burst"},
	}
	for _, tc := range cases {
		o := baseOpts(in, out)
		tc.mutate(&o)
		err := run(lppm.NewRegistry(), o)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: error is not a single line: %q", tc.name, err)
		}
	}
}

// promSeriesSum parses a Prometheus text page with a scraper's eye — every
// non-comment line must split into series and float — and sums the series
// of the named metric, failing if none exist.
func promSeriesSum(t *testing.T, page, name string) float64 {
	t.Helper()
	var sum float64
	found := false
	sc := bufio.NewScanner(strings.NewReader(page))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		base := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			base = series[:i]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unbalanced label braces in %q", line)
			}
		}
		if base != name {
			continue
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		found = true
		sum += v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("metric %s absent from page", name)
	}
	return sum
}

// TestAdminPlane exercises the -admin side-car against a real gateway:
// /metrics parses and quotes the gateway's counters, /metrics.json decodes,
// pprof answers, and writes are refused.
func TestAdminPlane(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := baseOpts("-", "-")
	g, _, _, err := buildServing(ctx, lppm.NewRegistry(), o)
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range g.Output() {
		}
	}()
	const n = 16
	for i := 0; i < n; i++ {
		rec := trace.Record{
			User:  "admin-user",
			Time:  time.Unix(1211025600+int64(i)*60, 0).UTC(),
			Point: geo.Point{Lat: 37.7749, Lng: -122.4194 + float64(i)*0.0003},
		}
		if err := g.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Close first so every counter is final before the scrape — the
	// registry outlives the gateway it instruments.
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	<-drained

	admin, err := startAdmin("127.0.0.1:0", g.Obs(), g.Tracer())
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + admin.Addr()

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	if got := promSeriesSum(t, string(page), "lppm_shard_ingested_total"); got != n {
		t.Errorf("scraped ingested sum = %v, want %d", got, n)
	}

	resp, err = http.Get(base + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var series []struct {
		Name string `json:"name"`
		Kind string `json:"kind"`
	}
	err = json.NewDecoder(resp.Body).Decode(&series)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics.json does not decode: %v", err)
	}
	found := false
	for _, s := range series {
		if s.Name == "lppm_shard_ingested_total" {
			found = true
		}
	}
	if !found {
		t.Error("/metrics.json misses lppm_shard_ingested_total")
	}

	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/ = %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/metrics", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", resp.StatusCode)
	}

	if err := admin.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeListenRoundTrip runs the daemon mode end to end on a loopback
// listener: stream records over HTTP, read stats and deployment, then shut
// down via context cancellation and verify the drain exits clean.
func TestServeListenRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o := baseOpts("-", "-")
	o.listen = ln.Addr().String()
	o.admin = "127.0.0.1:0" // exercise the side-car's daemon wiring and shutdown
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveListener(ctx, nil, lppm.NewRegistry(), o, ln) }()

	cl := client.New("http://" + ln.Addr().String())
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := cl.WaitHealthy(wctx); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		rec := trace.Record{
			User:  "net-user",
			Time:  time.Unix(1211025600+int64(i)*60, 0).UTC(),
			Point: geo.Point{Lat: 37.7749 + float64(i)*0.0004, Lng: -122.4194},
		}
		if err := st.Send(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		_, err := st.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got++
	}
	if got != n {
		t.Errorf("daemon returned %d records, want %d", got, n)
	}
	dep, err := cl.Deployment(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if dep.Mechanism != "geoi" {
		t.Errorf("daemon serves %q, want geoi", dep.Mechanism)
	}
	stats, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Gateway.Emitted != n || stats.Gateway.Dropped != 0 {
		t.Errorf("daemon stats %+v", stats.Gateway)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never exited after cancellation")
	}
}

// TestServeListenJournalDrainOrdering pins the daemon's shutdown sequence
// with -journal attached: drain first (the partial tail window is flushed
// and checkpointed), journal close second, exit-code join last. After a
// clean exit the on-disk journal must cover every record the daemon ever
// ingested — including the pending records only the drain flushed — and a
// second daemon start must resume from it.
func TestServeListenJournalDrainOrdering(t *testing.T) {
	jdir := filepath.Join(t.TempDir(), "wal")
	rec := func(i int) trace.Record {
		return trace.Record{
			User:  "net-user",
			Time:  time.Unix(1211025600+int64(i)*60, 0).UTC(),
			Point: geo.Point{Lat: 37.7749 + float64(i)*0.0004, Lng: -122.4194},
		}
	}
	start := func() (*client.Client, context.CancelFunc, chan error) {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		o := baseOpts("-", "-")
		o.listen = ln.Addr().String()
		o.journal = jdir
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- serveListener(ctx, nil, lppm.NewRegistry(), o, ln) }()
		cl := client.New("http://" + ln.Addr().String())
		wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer wcancel()
		if err := cl.WaitHealthy(wctx); err != nil {
			t.Fatal(err)
		}
		return cl, cancel, done
	}
	waitExit := func(cancel context.CancelFunc, done chan error) {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exit: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon never exited after cancellation")
		}
	}

	cl, cancel, done := start()
	st, err := cl.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 6 records against flushEvery=4: one window flushes live, two stay
	// pending — only the drain can checkpoint them.
	for i := 0; i < 6; i++ {
		if err := st.Send(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats, err := cl.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if stats.Gateway.Emitted >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first window never flushed: %+v", stats.Gateway)
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitExit(cancel, done) // drain mid-stream; exit code must stay clean
	_ = st.Close()

	// The journal on disk is the ordering witness: In=6 proves the drain's
	// tail flush checkpointed before the journal closed, Corrupted=false
	// proves the close was clean, and a decodable snapshot-headed segment
	// proves the exit-code join ran after both.
	w, jst, info, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !info.Resumed || info.Corrupted {
		t.Fatalf("journal after clean exit: %+v, want resumed and uncorrupted", info)
	}
	u := jst.Users["net-user"]
	if u == nil {
		t.Fatal("journal lost the user checkpoint")
	}
	if u.In != 6 || u.Out != 6 || u.Windows != 2 {
		t.Errorf("journal checkpoint in=%d out=%d windows=%d, want 6/6/2 (drain tail not checkpointed before close?)",
			u.In, u.Out, u.Windows)
	}

	// Second start resumes from the journal and says so on /healthz.
	cl2, cancel2, done2 := start()
	resp, err := http.Get(cl2.BaseURL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Recovery *struct {
			Resumed bool `json:"resumed"`
			Users   int  `json:"users"`
		} `json:"recovery"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health.Recovery == nil || !health.Recovery.Resumed || health.Recovery.Users != 1 {
		t.Errorf("healthz recovery after restart: %+v, want resumed with 1 user", health.Recovery)
	}
	res, err := cl2.Resume(context.Background(), "net-user", 6)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Known || res.Rewound || res.From != 6 {
		t.Errorf("resume after restart: %+v, want known from=6 without a rewind", res)
	}
	waitExit(cancel2, done2)
}
