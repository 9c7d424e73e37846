// Command lppm-load is the load generator for the protection server: it
// drives a synthetic fleet (internal/synth) through POST /v1/stream at a
// configurable user count and send rate, and reports throughput
// (points/sec) and per-record latency percentiles (p50/p99). Latency is
// end-to-end: from the moment a record is sent to the moment its protected
// counterpart is received, window buffering included — the figure an LBS
// client would actually observe behind the middleware. Percentiles come
// from the same fixed-bucket histogram the server's stage clock uses
// (internal/obs), so memory stays constant however long the run and the
// two sides quote comparable numbers.
//
// It also reports the k worst-latency records with the trace ID of the
// stream that carried each, the handle to look that window up in a
// tracing server's GET /trace.
//
// With -self-serve the generator starts the server in-process on a
// loopback listener; -trace-out then dumps that server's span ring as
// Chrome trace_event JSON. It is a smoke and tracing driver, not the
// repository's benchmark: that is bench/run.sh.
//
// Usage:
//
//	lppm-load -self-serve -users 4 -points 96 -flush 16 -trace-out trace.chrome
//	lppm-serve -listen :8080 & lppm-load -addr http://127.0.0.1:8080 -users 50 -rate 2000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lppm"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/trace"
)

// logger is the generator's structured logger (stderr; the report goes
// to stdout).
var logger *slog.Logger

func fatal(err error) {
	logger.Error("fatal", "err", err)
	os.Exit(1)
}

func main() {
	logger = obs.NewLogger(os.Stderr, obs.LoggerOptions{})

	var o loadOpts
	flag.StringVar(&o.addr, "addr", "", "base URL of a running server (e.g. http://127.0.0.1:8080); empty requires -self-serve")
	flag.BoolVar(&o.selfServe, "self-serve", false, "start the server in-process on a loopback listener")
	flag.StringVar(&o.mechName, "mech", "geoi", "mechanism for -self-serve")
	flag.IntVar(&o.shards, "shards", 0, "gateway shards for -self-serve, 0 for GOMAXPROCS")
	flag.IntVar(&o.flushEvery, "flush", 32, "per-user window size for -self-serve")
	flag.IntVar(&o.users, "users", 8, "fleet size (one stream user per driver)")
	flag.IntVar(&o.points, "points", 256, "records per user")
	flag.IntVar(&o.conns, "conns", 2, "concurrent stream connections the users spread over")
	flag.Float64Var(&o.rate, "rate", 0, "total send rate in records/sec across all connections, 0 = unthrottled")
	flag.Int64Var(&o.seed, "seed", 42, "master seed (fleet generation and server randomness)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the in-process tracer's span ring as Chrome trace_event JSON to this path at teardown (-self-serve only)")
	flag.IntVar(&o.exemplars, "exemplars", 3, "report the k worst-latency records as exemplars with their stream's trace ID, 0 disables")
	params := lppm.Params{}
	flag.Func("set", "mechanism parameter as name=value for -self-serve (repeatable)", func(s string) error {
		name, val, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("want name=value, got %q", s)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("bad value in %q: %v", s, err)
		}
		params[name] = v
		return nil
	})
	flag.Parse()
	o.params = params

	r, err := run(o)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%10.0f points/sec   p50 %7.2f ms   p99 %7.2f ms   (%d records)\n",
		r.pointsPerSec, r.p50Millis, r.p99Millis, r.records)
	for _, e := range r.exemplars {
		fmt.Printf("  slow record: user=%s latency=%.2fms trace=%s\n", e.user, e.latencyMillis, e.trace)
	}
}

type loadOpts struct {
	addr       string
	selfServe  bool
	mechName   string
	params     lppm.Params
	shards     int
	flushEvery int
	users      int
	points     int
	conns      int
	rate       float64
	seed       int64
	traceOut   string
	exemplars  int
}

// validate fails fast with a single-line error before any work starts.
func (o *loadOpts) validate() error {
	switch {
	case o.addr == "" && !o.selfServe:
		return fmt.Errorf("need -addr or -self-serve")
	case o.addr != "" && o.selfServe:
		return fmt.Errorf("-addr and -self-serve are mutually exclusive")
	case o.users < 1:
		return fmt.Errorf("-users must be >= 1, got %d", o.users)
	case o.points < 1:
		return fmt.Errorf("-points must be >= 1, got %d", o.points)
	case o.conns < 1:
		return fmt.Errorf("-conns must be >= 1, got %d", o.conns)
	case o.rate < 0:
		return fmt.Errorf("-rate must be non-negative, got %v", o.rate)
	case o.flushEvery < 1:
		return fmt.Errorf("-flush must be >= 1, got %d", o.flushEvery)
	case o.traceOut != "" && !o.selfServe:
		return fmt.Errorf("-trace-out needs -self-serve (it dumps the in-process tracer's ring)")
	case o.exemplars < 0:
		return fmt.Errorf("-exemplars must be non-negative, got %d", o.exemplars)
	}
	if o.conns > o.users {
		o.conns = o.users
	}
	return nil
}

// exemplar is one of the k worst-latency records: who it belonged to,
// what an LBS client would have waited, and the trace ID of the stream
// that carried it — the handle to paste into GET /trace (or grep in
// trace.chrome) to see where that window's time went.
type exemplar struct {
	user          string
	latencyMillis float64
	trace         string
}

// insertExemplar keeps ex sorted worst-first and capped at k entries.
func insertExemplar(ex []exemplar, e exemplar, k int) []exemplar {
	i := sort.Search(len(ex), func(i int) bool { return ex[i].latencyMillis < e.latencyMillis })
	if i >= k {
		return ex
	}
	ex = append(ex, exemplar{})
	copy(ex[i+1:], ex[i:])
	ex[i] = e
	if len(ex) > k {
		ex = ex[:k]
	}
	return ex
}

// report is one run's result: throughput, end-to-end latency
// percentiles, and the worst-latency exemplars.
type report struct {
	records      int
	pointsPerSec float64
	p50Millis    float64
	p99Millis    float64
	exemplars    []exemplar
}

// generateFleet builds each user's record sequence: a synthetic fleet
// truncated to exactly -points records per driver. Heterogeneity is
// disabled so every driver reports at the base period and yields enough
// records within the simulated span.
func generateFleet(o loadOpts) (map[string][]trace.Record, error) {
	cfg := synth.DefaultConfig()
	cfg.Seed = o.seed
	cfg.NumDrivers = o.users
	cfg.Heterogeneity = 0
	cfg.SamplePeriod = time.Minute
	cfg.Duration = time.Duration(o.points+2) * cfg.SamplePeriod
	fleet, err := synth.Generate(cfg, nil)
	if err != nil {
		return nil, err
	}
	perUser := make(map[string][]trace.Record, o.users)
	for _, tr := range fleet.Dataset.Traces() {
		if tr.Len() < o.points {
			return nil, fmt.Errorf("driver %s generated %d records, need %d", tr.User, tr.Len(), o.points)
		}
		perUser[tr.User] = tr.Records[:o.points]
	}
	return perUser, nil
}

// run spins up the server (self-serve) or reuses the remote one,
// streams every user's records over -conns connections, and reports
// throughput, exemplars and per-record latency. Latencies go into one
// histogram shared by every connection (Observe is wait-free): O(1)
// memory however many records flow.
func run(o loadOpts) (res *report, err error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	perUser, err := generateFleet(o)
	if err != nil {
		return nil, err
	}
	res = new(report)
	lat := new(obs.Histogram)
	base := o.addr
	var teardown func() error
	if o.selfServe {
		base, teardown, err = startSelfServe(o)
		if err != nil {
			return nil, err
		}
		defer func() {
			if terr := teardown(); err == nil {
				err = terr
			}
		}()
	}

	// Users spread round-robin over connections; each connection merges
	// its users' records into one time-ordered sequence.
	users := make([]string, 0, len(perUser))
	for u := range perUser {
		users = append(users, u)
	}
	sort.Strings(users)
	connRecs := make([][]trace.Record, o.conns)
	for i, u := range users {
		connRecs[i%o.conns] = append(connRecs[i%o.conns], perUser[u]...)
	}
	for i := range connRecs {
		recs := connRecs[i]
		sort.SliceStable(recs, func(a, b int) bool { return recs[a].Time.Before(recs[b].Time) })
	}

	cl := client.New(base)
	ratePerConn := o.rate / float64(o.conns)
	type connResult struct {
		received  int
		exemplars []exemplar
		err       error
	}
	results := make(chan connResult, o.conns)
	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < o.conns; ci++ {
		wg.Add(1)
		go func(recs []trace.Record) {
			defer wg.Done()
			r := driveConn(cl, recs, ratePerConn, lat, o.exemplars)
			results <- connResult{received: r.received, exemplars: r.exemplars, err: r.err}
		}(connRecs[ci])
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(results)
	for r := range results {
		if r.err != nil && err == nil {
			err = r.err
		}
		res.records += r.received
		for _, e := range r.exemplars {
			res.exemplars = insertExemplar(res.exemplars, e, o.exemplars)
		}
	}
	if s := elapsed.Seconds(); s > 0 {
		res.pointsPerSec = float64(res.records) / s
	}
	if err != nil {
		return nil, err
	}
	want := 0
	for _, recs := range perUser {
		want += len(recs)
	}
	if res.records != want {
		return nil, fmt.Errorf("received %d protected records, want %d", res.records, want)
	}
	res.p50Millis = quantileMillis(lat, 0.50)
	res.p99Millis = quantileMillis(lat, 0.99)
	return res, nil
}

// driveConn streams one connection's records and matches each received
// record to its send time by (user, arrival index) — exact for mechanisms
// that preserve count and order per user (the default GEO-I does); for
// mechanisms that inject or drop records only the matched prefix
// contributes latencies, while throughput counts everything. Matched
// latencies are observed straight into lat in nanoseconds.
//
// Each connection originates its own trace: a fresh root context is
// injected as a traceparent header, so a tracing server correlates every
// window this stream produces under one client-visible trace ID — the ID
// the k worst-latency exemplars report.
func driveConn(cl *client.Client, recs []trace.Record, rate float64, lat *obs.Histogram, k int) (out struct {
	received  int
	exemplars []exemplar
	err       error
}) {
	sc := tracing.NewRootContext()
	traceID := sc.Trace.String()
	ctx := tracing.ContextWithSpanContext(context.Background(), sc)
	st, err := cl.Stream(ctx)
	if err != nil {
		out.err = err
		return
	}
	sendTimes := make(map[string][]time.Time)
	var mu sync.Mutex
	recvDone := make(chan error, 1)
	go func() {
		recvIdx := make(map[string]int)
		for {
			rec, rerr := st.Recv()
			if rerr == io.EOF {
				recvDone <- nil
				return
			}
			if rerr != nil {
				recvDone <- rerr
				return
			}
			now := time.Now()
			out.received++
			i := recvIdx[rec.User]
			recvIdx[rec.User] = i + 1
			mu.Lock()
			sent := sendTimes[rec.User]
			mu.Unlock()
			if i < len(sent) {
				d := now.Sub(sent[i])
				lat.Observe(int64(d))
				if k > 0 {
					out.exemplars = insertExemplar(out.exemplars, exemplar{
						user:          rec.User,
						latencyMillis: float64(d) / float64(time.Millisecond),
						trace:         traceID,
					}, k)
				}
			}
		}
	}()
	interval := time.Duration(0)
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	next := time.Now()
	for _, rec := range recs {
		if interval > 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			next = next.Add(interval)
		}
		mu.Lock()
		sendTimes[rec.User] = append(sendTimes[rec.User], time.Now())
		mu.Unlock()
		if err := st.Send(rec); err != nil {
			out.err = err
			st.Close() //lppm:allow droppederr -- best-effort abort: the send failure already carries the stream's error
			<-recvDone
			return
		}
	}
	if err := st.CloseSend(); err != nil {
		out.err = err
		st.Close() //lppm:allow droppederr -- best-effort abort: the close-send failure already carries the stream's error
		<-recvDone // the receiver owns out.received until it signals
		return
	}
	out.err = <-recvDone
	return
}

// startSelfServe builds deployment → gateway → server on a loopback
// listener and returns the base URL plus a teardown that drains it.
func startSelfServe(o loadOpts) (string, func() error, error) {
	reg := lppm.NewRegistry()
	mech, err := reg.Get(o.mechName)
	if err != nil {
		return "", nil, err
	}
	dep, err := core.NewDeployment(mech, o.params)
	if err != nil {
		return "", nil, err
	}
	gwCfg := service.ConfigFromDeployment(dep, o.seed)
	gwCfg.Shards = o.shards
	gwCfg.FlushEvery = o.flushEvery
	var tr *tracing.Tracer
	if o.traceOut != "" {
		tr = tracing.New(tracing.Config{})
		gwCfg.Tracer = tr
	}
	gw, err := service.New(context.Background(), gwCfg)
	if err != nil {
		return "", nil, err
	}
	srv, err := server.New(server.Config{Gateway: gw, Seed: o.seed})
	if err != nil {
		return "", nil, errors.Join(err, gw.Close())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, errors.Join(err, gw.Close())
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	teardown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		derr := srv.Drain(ctx)
		// Shutdown waits for in-flight responses (tail windows still
		// being written); Close would sever them.
		cerr := hs.Shutdown(ctx)
		var terr error
		if tr != nil {
			// Dump after the drain so the tail windows' spans are in the
			// ring. The file is Perfetto-loadable as-is.
			f, ferr := os.Create(o.traceOut)
			if ferr != nil {
				terr = ferr
			} else {
				terr = errors.Join(tr.WriteChrome(f), f.Close())
			}
		}
		return errors.Join(derr, cerr, terr)
	}
	return "http://" + ln.Addr().String(), teardown, nil
}

// quantileMillis converts the histogram's q-quantile estimate from
// nanoseconds to milliseconds, 0 when nothing was matched. The estimate
// sits within one power-of-two bucket width of the exact order statistic
// (see obs.HistogramSnapshot.Quantile) — the old sort-based computation
// was exact but held every sample in memory and re-sorted per quantile.
func quantileMillis(h *obs.Histogram, q float64) float64 {
	s := h.Snapshot()
	if s.Count == 0 {
		return 0
	}
	return float64(s.Quantile(q)) / float64(time.Millisecond)
}
