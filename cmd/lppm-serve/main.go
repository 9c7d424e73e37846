// Command lppm-serve runs the online protection gateway over a record
// stream: it reads location records (JSONL or CSV) from stdin or a file,
// routes them through N shards applying the configured mechanism, and
// streams the protected records out — the serving counterpart of the batch
// lppm-apply. With -reconfigure-every it also closes the loop: a
// reconfiguration controller samples the served stream, estimates the live
// privacy/utility, and hot-swaps a re-configured deployment when the
// observed values drift outside the -objectives.
//
// With -listen the same binary runs as a network daemon instead: the
// gateway is exposed over HTTP (POST /v1/stream and friends — see
// internal/server) until SIGINT/SIGTERM triggers a graceful drain.
//
// With -admin (either mode) an observability side-car serves GET /metrics
// (Prometheus text format), GET /metrics.json and /debug/pprof on its own
// listener, so scraping and profiling never contend with — and pprof is
// never reachable from — the serving address. Adding -trace records a
// span tree per sampled window and mounts GET /trace (JSON),
// GET /trace.chrome (Chrome trace_event, loadable in Perfetto) and
// GET /debug/flight (the flight recorder) on the same admin plane.
//
// Usage:
//
//	lppm-tracegen -drivers 50 -out day.csv
//	lppm-serve -in day.csv -format csv -mech geoi -set epsilon=0.01 -shards 8 -out protected.csv -stats
//	cat stream.jsonl | lppm-serve -mech rounding > protected.jsonl
//	lppm-serve -in day.csv -format csv -mech geoi -reconfigure-every 30s -objectives privacy=0.1,utility=0.8
//	lppm-serve -listen :8080 -mech geoi -set epsilon=0.01 -shards 8 -stats
//	lppm-serve -listen :8080 -admin 127.0.0.1:6060 -mech geoi
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
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/lppm"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/server"
	"repro/internal/service"
	"repro/internal/trace"
)

// logger is the process-wide structured logger. main installs a plain
// one immediately; buildServing replaces it with a gateway-correlated
// one (deployment generation on every line, trace/span IDs from request
// contexts, events teed into the flight recorder) as soon as a gateway
// exists.
var logger *slog.Logger

// fatal reports a terminal error through the structured logger and
// exits non-zero — the slog replacement for log.Fatal.
func fatal(err error) {
	logger.Error("fatal", "err", err)
	os.Exit(1)
}

func main() {
	logger = obs.NewLogger(os.Stderr, obs.LoggerOptions{ContextAttrs: tracing.ContextAttrs})

	var (
		mechName   = flag.String("mech", "geoi", "mechanism to apply (see -list)")
		list       = flag.Bool("list", false, "list available mechanisms and exit")
		inPath     = flag.String("in", "-", "input path, - for stdin")
		outPath    = flag.String("out", "-", "output path, - for stdout")
		formatName = flag.String("format", "jsonl", "record format: jsonl or csv")
		shards     = flag.Int("shards", 0, "worker shards, 0 for GOMAXPROCS")
		queue      = flag.Int("queue", 0, "per-shard queue size, 0 for default")
		flushEvery = flag.Int("flush", 0, "per-user window size, 0 for default")
		seed       = flag.Int64("seed", 42, "master random seed")
		stats      = flag.Bool("stats", false, "print gateway stats to stderr on exit")
		admin      = flag.String("admin", "", "serve /metrics, /metrics.json and /debug/pprof on this address (e.g. 127.0.0.1:6060); empty disables")

		traceOn = flag.Bool("trace", false,
			"record per-window span trees; mounts /trace, /trace.chrome and /debug/flight on the -admin plane")
		traceSample = flag.Float64("trace-sample", 1.0,
			"fraction of windows traced, in (0, 1] — deterministic in the trace ID (with -trace)")

		journal = flag.String("journal", "",
			"append-only journal directory: checkpoint per-user stream state for crash-safe resume; auto-recovers on start (empty disables)")

		listen     = flag.String("listen", "", "serve the gateway over HTTP on this address (e.g. :8080) instead of -in/-out")
		maxStreams = flag.Int("max-streams", 0, "max concurrent /v1/stream connections (0 default, negative unlimited; with -listen)")
		rateLimit  = flag.Float64("rate-limit", 0, "per-tenant request rate limit in req/s, 0 disables (with -listen)")
		burst      = flag.Int("burst", 0, "per-tenant rate-limit burst, 0 for default (with -listen)")

		reconfEvery = flag.Duration("reconfigure-every", 0,
			"run the reconfiguration controller at this interval (0 disables the loop)")
		objectives = flag.String("objectives", "privacy=0.10,utility=0.80",
			"drift targets as privacy=MAX,utility=MIN (used with -reconfigure-every)")
		sampleFrac = flag.Float64("sample", 0.05,
			"fraction of flushed windows the controller observes, in (0, 1] (0 also means the 5% default; drop -reconfigure-every to disable the loop)")
		paramName = flag.String("param", "",
			"parameter the controller re-models; empty = the mechanism's sole parameter")
	)
	params := lppm.Params{}
	flag.Func("set", "parameter override as name=value (repeatable)", func(s string) error {
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

	reg := lppm.NewRegistry()
	if *list {
		fmt.Println(strings.Join(reg.Names(), "\n"))
		return
	}
	obj, err := parseObjectives(*objectives)
	if err != nil {
		fatal(err)
	}
	opts := serveOpts{
		mechName: *mechName, params: params,
		inPath: *inPath, outPath: *outPath, formatName: *formatName,
		shards: *shards, queue: *queue, flushEvery: *flushEvery,
		seed: *seed, stats: *stats, admin: *admin,
		traceOn: *traceOn, traceSample: *traceSample,
		journal: *journal, reconfEvery: *reconfEvery, objectives: obj,
		sampleFrac: *sampleFrac, paramName: *paramName,
		listen: *listen, maxStreams: *maxStreams,
		rateLimit: *rateLimit, burst: *burst,
	}
	if opts.listen != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		// stop is forwarded so the drain path restores default signal
		// handling the moment the first signal lands: a second SIGTERM
		// then kills the process outright instead of being swallowed
		// while a stuck drain runs out its timeout.
		if err := runListen(ctx, stop, reg, opts); err != nil {
			fatal(err)
		}
		return
	}
	if err := run(reg, opts); err != nil {
		fatal(err)
	}
}

// parseObjectives reads "privacy=0.1,utility=0.8" into model.Objectives.
// Both bounds are required: a missing one would silently default to zero
// and turn the drift check into a perpetually-failing reconfiguration.
func parseObjectives(s string) (model.Objectives, error) {
	var obj model.Objectives
	var havePriv, haveUtil bool
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return obj, fmt.Errorf("bad -objectives part %q, want name=value", part)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return obj, fmt.Errorf("bad -objectives value in %q: %v", part, err)
		}
		switch name {
		case "privacy":
			obj.MaxPrivacy, havePriv = v, true
		case "utility":
			obj.MinUtility, haveUtil = v, true
		default:
			return obj, fmt.Errorf("unknown -objectives name %q (want privacy or utility)", name)
		}
	}
	if !havePriv || !haveUtil {
		return obj, fmt.Errorf("-objectives must set both privacy and utility, got %q", s)
	}
	return obj, obj.Validate()
}

type serveOpts struct {
	mechName   string
	params     lppm.Params
	inPath     string
	outPath    string
	formatName string
	shards     int
	queue      int
	flushEvery int
	seed       int64
	stats      bool
	admin      string

	traceOn     bool
	traceSample float64

	journal string

	reconfEvery time.Duration
	objectives  model.Objectives
	sampleFrac  float64
	paramName   string

	listen     string
	maxStreams int
	rateLimit  float64
	burst      int
}

// validate fails fast on flag nonsense with a single-line error, before
// any file is opened or goroutine started — a bad -queue must not surface
// as a failure deep in the pipeline.
func (o *serveOpts) validate() error {
	switch {
	case o.queue < 0:
		return fmt.Errorf("-queue must be non-negative, got %d", o.queue)
	case o.flushEvery < 0:
		return fmt.Errorf("-flush must be non-negative, got %d", o.flushEvery)
	case o.shards < 0:
		return fmt.Errorf("-shards must be non-negative, got %d", o.shards)
	case o.sampleFrac < 0 || o.sampleFrac > 1:
		return fmt.Errorf("-sample must be in [0, 1], got %v", o.sampleFrac)
	case o.reconfEvery < 0:
		return fmt.Errorf("-reconfigure-every must be non-negative, got %v", o.reconfEvery)
	case o.rateLimit < 0:
		return fmt.Errorf("-rate-limit must be non-negative, got %v", o.rateLimit)
	case o.burst < 0:
		return fmt.Errorf("-burst must be non-negative, got %d", o.burst)
	case o.traceSample < 0 || o.traceSample > 1:
		return fmt.Errorf("-trace-sample must be in (0, 1], got %v", o.traceSample)
	case !o.traceOn && o.traceSample != 0 && o.traceSample != 1.0:
		return fmt.Errorf("-trace-sample requires -trace")
	}
	if _, err := trace.ParseFormat(o.formatName); err != nil {
		return fmt.Errorf("-format: %v", err)
	}
	return nil
}

// buildServing turns the flags into the serving stack shared by the file
// and network modes: deployment → gateway → optional controller. With
// -journal the gateway is built by service.Recover instead: a fresh
// directory starts a journal, an existing one resumes every
// checkpointed user stream bit-identically (the journaled deployment wins
// over the flags — the journal is authoritative for what was serving).
func buildServing(ctx context.Context, reg *lppm.Registry, o serveOpts) (*service.Gateway, *service.Controller, *service.RecoveryInfo, error) {
	mech, err := reg.Get(o.mechName)
	if err != nil {
		return nil, nil, nil, err
	}
	// Defaults plus -set overrides, validated once up front.
	dep, err := core.NewDeployment(mech, o.params)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := service.ConfigFromDeployment(dep, o.seed)
	cfg.Shards = o.shards
	cfg.QueueSize = o.queue
	cfg.FlushEvery = o.flushEvery
	if o.traceOn {
		cfg.Tracer = tracing.New(tracing.Config{SampleFrac: o.traceSample})
	}
	var g *service.Gateway
	var info *service.RecoveryInfo
	if o.journal != "" {
		g, info, err = service.Recover(ctx, cfg, service.JournalConfig{Dir: o.journal})
		if err != nil {
			return nil, nil, nil, err
		}
	} else {
		g, err = service.New(ctx, cfg)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	// The gateway exists: runtime self-metrics join its registry, and the
	// process logger is rebuilt correlated — deployment generation on
	// every line, trace/span IDs from request contexts, and every event
	// teed into the flight recorder (nil-safe when tracing is off).
	obs.RegisterRuntimeMetrics(g.Obs())
	logger = obs.NewLogger(os.Stderr, obs.LoggerOptions{
		ContextAttrs: tracing.ContextAttrs,
		Generation:   g.Generation,
		Sink:         g.Tracer().Flight(),
	})
	if info != nil {
		if info.Resumed {
			logger.Info("journal resumed",
				"dir", o.journal, "users", info.Users, "generation", info.Generation,
				"segments", info.Segments, "entries", info.Entries, "torn_tail", info.Corrupted)
		} else {
			logger.Info("journal started fresh", "dir", o.journal)
		}
	}
	var ctrl *service.Controller
	if o.reconfEvery > 0 {
		ctrl, err = service.NewController(g, dep, service.ControllerConfig{
			Definition: core.Definition{
				Mechanism: mech,
				Param:     o.paramName,
				Privacy:   metrics.MustPOIRetrieval(metrics.DefaultPOIRetrievalConfig()),
				Utility:   metrics.MustAreaCoverage(metrics.DefaultAreaCoverageConfig()),
				// Online re-analysis trades grid resolution for
				// latency: it runs against live traffic.
				GridPoints: 9,
				Repeats:    1,
			},
			Objectives: o.objectives,
			SampleFrac: o.sampleFrac,
			Seed:       o.seed,
		})
		if err != nil {
			return nil, nil, nil, errors.Join(err, g.Close())
		}
		go ctrl.Run(ctx, o.reconfEvery)
	}
	return g, ctrl, info, nil
}

// adminServer is the observability side-car: /metrics, /metrics.json and
// net/http/pprof on their own listener — never the serving one, so a
// scraper or a profile download cannot contend with stream admission and
// the serving surface never exposes pprof.
type adminServer struct {
	hs *http.Server
	ln net.Listener
}

// startAdmin binds addr and serves the admin mux over reg in the
// background, mounting the tracing endpoints when a tracer is attached.
// Callers own the returned server and must Close it on exit.
func startAdmin(addr string, reg *obs.Registry, t *tracing.Tracer) (*adminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin listener: %w", err)
	}
	mux := obs.AdminMux(reg)
	if t != nil {
		mux.Handle("/trace", tracing.TraceHandler(t))
		mux.Handle("/trace.chrome", tracing.ChromeHandler(t))
		mux.Handle("/debug/flight", tracing.FlightHandler(t))
	}
	hs := &http.Server{Handler: mux}
	go hs.Serve(ln)
	logger.Info("admin plane up", "url", fmt.Sprintf("http://%s/metrics", ln.Addr()), "tracing", t != nil)
	return &adminServer{hs: hs, ln: ln}, nil
}

// Addr reports the bound address (useful with -admin 127.0.0.1:0).
func (a *adminServer) Addr() string { return a.ln.Addr().String() }

// Close shuts the admin plane down, giving in-flight scrapes a short
// grace before the listener goes away.
func (a *adminServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return a.hs.Shutdown(ctx)
}

// runListen is the network daemon: the serving stack behind an HTTP
// front-end until the context (SIGINT/SIGTERM) ends it, then a graceful
// drain that flushes every user stream exactly once and — when a journal
// is attached — closes the journal only after the last tail window has
// been checkpointed, so the on-disk state a later -journal start resumes
// from covers everything the drain delivered.
func runListen(ctx context.Context, stop context.CancelFunc, reg *lppm.Registry, o serveOpts) error {
	if err := o.validate(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	return serveListener(ctx, stop, reg, o, ln)
}

// serveListener runs the daemon on an existing listener (split from
// runListen so tests can bind :0 and learn the port). stop, when non-nil,
// is called as soon as the shutdown begins, restoring default signal
// disposition so a second signal kills a wedged drain outright.
func serveListener(ctx context.Context, stop context.CancelFunc, reg *lppm.Registry, o serveOpts, ln net.Listener) error {
	gctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g, ctrl, info, err := buildServing(gctx, reg, o)
	if err != nil {
		return errors.Join(err, ln.Close())
	}
	var admin *adminServer
	if o.admin != "" {
		admin, err = startAdmin(o.admin, g.Obs(), g.Tracer())
		if err != nil {
			return errors.Join(err, ln.Close(), g.Close())
		}
	}
	srv, err := server.New(server.Config{
		Gateway:    g,
		Controller: ctrl,
		MaxStreams: o.maxStreams,
		RatePerSec: o.rateLimit,
		Burst:      o.burst,
		Seed:       o.seed,
		Recovery:   info,
	})
	if err != nil {
		if admin != nil {
			err = errors.Join(err, admin.Close())
		}
		return errors.Join(err, ln.Close(), g.Close())
	}
	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	logger.Info("listening", "addr", ln.Addr().String())

	var runErr error
	select {
	case <-ctx.Done():
	case runErr = <-serveErr:
		// The listener died under us; still drain what is in flight.
	}
	if stop != nil {
		stop()
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	drainErr := srv.Drain(dctx)
	// Shutdown, not Close: Drain returns once every tail window has been
	// routed into its connection's buffer, but handlers may still be
	// writing those buffers onto the wire — severing the TCP connections
	// here would lose the very tails the drain just flushed.
	closeErr := hs.Shutdown(dctx)
	if errors.Is(closeErr, context.DeadlineExceeded) {
		closeErr = errors.Join(closeErr, hs.Close())
	}
	// The admin plane outlives the drain so the final counters stay
	// scrapeable until the very end of the shutdown.
	var adminErr error
	if admin != nil {
		adminErr = admin.Close()
	}
	if o.stats {
		printStats(g, ctrl)
	}
	if errors.Is(runErr, http.ErrServerClosed) {
		runErr = nil
	}
	return errors.Join(runErr, drainErr, closeErr, adminErr)
}

func run(reg *lppm.Registry, o serveOpts) error {
	if err := o.validate(); err != nil {
		return err
	}
	format, err := trace.ParseFormat(o.formatName)
	if err != nil {
		return err
	}

	in := io.Reader(os.Stdin)
	if o.inPath != "-" {
		f, err := os.Open(o.inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	out := io.Writer(os.Stdout)
	var outFile *os.File
	if o.outPath != "-" {
		f, err := os.Create(o.outPath)
		if err != nil {
			return err
		}
		outFile = f
		out = f
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A dead output also cancels ingestion — no point protecting a
	// multi-gigabyte stream whose writer failed on the first window.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	g, ctrl, _, err := buildServing(ctx, reg, o)
	if err != nil {
		return err
	}
	var admin *adminServer
	if o.admin != "" {
		admin, err = startAdmin(o.admin, g.Obs(), g.Tracer())
		if err != nil {
			return errors.Join(err, g.Close())
		}
	}

	rw, err := trace.NewRecordWriter(out, format)
	if err != nil {
		return err
	}
	writeDone := make(chan error, 1)
	go func() {
		for wnd := range g.Output() {
			for _, rec := range wnd.Records {
				if err := rw.Write(rec); err != nil {
					writeDone <- err
					cancel()
					// Keep draining so the gateway can finish.
					for range g.Output() {
					}
					return
				}
			}
		}
		// The buffered writer's flush is a success-path concern: a
		// failure here means the tail of the output never hit the sink.
		writeDone <- rw.Flush()
	}()

	// Every failure below must reach the exit code — a gateway error, a
	// writer flush/close error or an output-file close error each mean
	// the -out file may be truncated, and exiting zero would hide it.
	scanErr := trace.ScanRecords(in, format, g.Ingest)
	gwErr := g.Close()
	writeErr := <-writeDone
	if writeErr != nil && errors.Is(scanErr, context.Canceled) {
		// The writer failure induced the cancellation; reporting the
		// scan's context error too would only obscure the cause.
		scanErr = nil
	}
	var outCloseErr error
	if outFile != nil {
		// Close explicitly: a delayed write-back failure surfaces here.
		outCloseErr = outFile.Close()
	}
	var adminErr error
	if admin != nil {
		adminErr = admin.Close()
	}
	if o.stats {
		printStats(g, ctrl)
	}
	// A canceled scan (SIGINT) still drained above and is worth
	// reporting; Join drops the nils and keeps every real failure.
	return errors.Join(writeErr, scanErr, gwErr, outCloseErr, adminErr)
}

// printStats reports the gateway (and controller) counters on stderr.
func printStats(g *service.Gateway, ctrl *service.Controller) {
	st := g.Stats()
	fmt.Fprintf(os.Stderr, "ingested=%d emitted=%d dropped=%d users=%d flushes=%d shards=%d generation=%d swaps=%d\n",
		st.Ingested, st.Emitted, st.Dropped, st.Users, st.Flushes, len(st.PerShard), st.Generation, st.Swaps)
	for i, ss := range st.PerShard {
		fmt.Fprintf(os.Stderr, "  shard %d: ingested=%d emitted=%d users=%d\n",
			i, ss.Ingested, ss.Emitted, ss.Users)
	}
	if ctrl != nil {
		cs := ctrl.Stats()
		fmt.Fprintf(os.Stderr, "controller: windows=%d records=%d users=%d evals=%d swaps=%d privacy=%.3f utility=%.3f\n",
			cs.WindowsObserved, cs.RecordsObserved, cs.UsersTracked,
			cs.Evaluations, cs.Swaps, cs.LastPrivacy, cs.LastUtility)
		if cs.LastErr != nil {
			fmt.Fprintf(os.Stderr, "controller: last error: %v\n", cs.LastErr)
		}
	}
}
