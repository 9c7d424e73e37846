// Package server is the network front-end over the protection gateway: the
// paper's framework is middleware, and middleware earns its keep with an
// explicit transport layer. The server exposes the running
// service.Gateway/service.Controller over HTTP:
//
//	POST /v1/stream       chunked NDJSON records in → protected NDJSON out
//	POST /v1/protect      unary batch: NDJSON in, protected NDJSON out
//	GET  /v1/stats        server + gateway (+ controller) counters
//	GET  /v1/deployment   serving generation and parameter assignment
//	POST /v1/reconfigure  manual hot-swap of the serving deployment
//	GET  /healthz         liveness (503 while draining)
//
// The wire format at both boundaries is the trace package's JSONL codec
// (trace.ScanRecords / trace.RecordWriter): exactly the bytes the file path
// reads and writes, so the determinism discipline (§3) carries over — for a
// given seed and per-user record sequence, the protected stream is
// bit-identical whether records arrive via file or socket.
//
// One gateway serves every connection. A /v1/stream connection multiplexes
// its users onto the gateway's shards: the first connection to send a
// user's record owns that user until the connection ends, and the
// dispatcher routes each flushed window back to its owner. Backpressure is
// end-to-end: a full shard queue blocks Ingest, which stalls the
// connection's body read, which TCP flow control propagates to the client;
// symmetrically, a slow reader fills its window queue, blocks the
// dispatcher and ultimately the flush path. Admission control bounds what
// backpressure cannot: concurrent streams are capped (503) and per-tenant
// token buckets rate-limit requests (429).
//
// Shutdown is a graceful drain: new work is refused, in-flight streams stop
// ingesting, and Gateway.Close flushes every per-user stream exactly once —
// connected clients receive their tail windows before the response ends.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lppm"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/trace"
)

// wireFormat is the one format spoken on the network: NDJSON via the trace
// codec. CSV stays a file-path concern.
const wireFormat = trace.FormatJSONL

// ndjsonContentType labels streaming record bodies.
const ndjsonContentType = "application/x-ndjson"

// streamErrTrailer carries a stream's terminal error out-of-band, so the
// body stays pure records (codec reuse) even when the stream ends early.
const streamErrTrailer = "X-Stream-Error"

// errDraining aborts stream intake when the server begins its drain.
var errDraining = errors.New("server: draining")

// Config parameterizes a Server.
type Config struct {
	// Gateway is the running protection gateway every endpoint fronts.
	// The server becomes the gateway's sole Output consumer; nothing else
	// may read Gateway.Output once the server is constructed.
	Gateway *service.Gateway
	// Controller, when set, adds its stats to /v1/stats. The server does
	// not drive it; wire Run yourself.
	Controller *service.Controller
	// MaxStreams caps concurrent /v1/stream connections; 0 uses 64,
	// negative disables the cap.
	MaxStreams int
	// WindowBuffer is each connection's outbound window queue length, in
	// flushed windows; 0 uses 32. A full buffer blocks the dispatcher —
	// backpressure, not loss.
	WindowBuffer int
	// RatePerSec is each tenant's sustained request budget across the /v1
	// endpoints, in requests per second (token bucket, 429 beyond); 0
	// disables rate limiting.
	RatePerSec float64
	// Burst is the token bucket's capacity; 0 uses max(1, ⌈RatePerSec⌉).
	Burst int
	// MaxBatchRecords caps a /v1/protect body; 0 uses 1<<20.
	MaxBatchRecords int
	// WriteStallTimeout bounds how long a stream write may sit in a full
	// TCP buffer before the connection is declared stalled and abandoned;
	// 0 uses 30s. Without it a client that stops reading its response
	// (but keeps the socket open) would freeze its writer, fill its
	// window queue, and wedge the dispatcher — and with it every other
	// connection. The deadline is rolling (re-armed per window), so
	// long-lived streams are unaffected while the client keeps reading.
	WriteStallTimeout time.Duration
	// Seed drives /v1/protect's batch randomness. The unary endpoint is
	// stateless: identical requests protect identically, matching the
	// batch file path under the same seed.
	Seed int64
	// Recovery, when set, is the journal recovery report from
	// service.Recover; /healthz includes it so operators (and reconnecting
	// clients) can see whether this process resumed from a
	// journal and how much state it reconstructed.
	Recovery *service.RecoveryInfo

	// now is the admission clock, replaceable in tests.
	now func() time.Time
}

// normalize fills defaults and validates.
func (c *Config) normalize() error {
	if c.Gateway == nil {
		return fmt.Errorf("server: nil gateway")
	}
	if c.MaxStreams == 0 {
		c.MaxStreams = 64
	}
	if c.WindowBuffer == 0 {
		c.WindowBuffer = 32
	}
	if c.WindowBuffer < 1 {
		return fmt.Errorf("server: WindowBuffer must be >= 1, got %d", c.WindowBuffer)
	}
	if c.RatePerSec < 0 {
		return fmt.Errorf("server: RatePerSec must be non-negative, got %v", c.RatePerSec)
	}
	if c.Burst < 0 {
		return fmt.Errorf("server: Burst must be non-negative, got %d", c.Burst)
	}
	if c.Burst == 0 {
		c.Burst = int(math.Max(1, math.Ceil(c.RatePerSec)))
	}
	if c.MaxBatchRecords == 0 {
		c.MaxBatchRecords = 1 << 20
	}
	if c.MaxBatchRecords < 1 {
		return fmt.Errorf("server: MaxBatchRecords must be >= 1, got %d", c.MaxBatchRecords)
	}
	if c.WriteStallTimeout == 0 {
		c.WriteStallTimeout = 30 * time.Second
	}
	if c.WriteStallTimeout < 0 {
		return fmt.Errorf("server: WriteStallTimeout must be positive, got %v", c.WriteStallTimeout)
	}
	if c.now == nil {
		c.now = time.Now
	}
	return nil
}

// timedWindow is one flushed window in a connection's outbound queue,
// carrying the obs.Stamp at which the dispatcher received it (0 when the
// stage clock is off) so the writer can attribute queue residency to the
// dispatch stage and the wire time to the write stage, plus the window's
// trace context so those hops extend the window's span tree.
type timedWindow struct {
	recs []trace.Record
	ns   int64
	span tracing.SpanContext
}

// streamConn is one /v1/stream connection's server-side state: the window
// queue the dispatcher fills and the writer drains, plus the set of users
// the connection owns (guarded by the server mutex).
type streamConn struct {
	windows chan timedWindow
	gone    chan struct{} // closed when the response sink is abandoned
	users   map[string]struct{}
	// trace is the connection's request-span context — the client's
	// traceparent continued, or a fresh server-side root. Written once
	// by the stream handler before the reader goroutine starts.
	trace tracing.SpanContext

	closeOnce sync.Once
	goneOnce  sync.Once
}

func newStreamConn(buffer int) *streamConn {
	return &streamConn{
		windows: make(chan timedWindow, buffer),
		gone:    make(chan struct{}),
		users:   make(map[string]struct{}),
	}
}

// closeWindows ends the connection's output. Called only when no dispatcher
// send can be in flight: after a barrier with the users unregistered, or
// from finish once the dispatcher has exited.
func (c *streamConn) closeWindows() { c.closeOnce.Do(func() { close(c.windows) }) }

// abandon marks the response sink dead so the dispatcher drops instead of
// blocking on this connection.
func (c *streamConn) abandon() { c.goneOnce.Do(func() { close(c.gone) }) }

// Server fronts a gateway over HTTP. Create with New, mount as an
// http.Handler, stop with Drain.
type Server struct {
	cfg     Config
	gw      *service.Gateway
	mux     *http.ServeMux
	limiter *limiter

	mu            sync.Mutex
	owners        map[string]*streamConn
	conns         map[*streamConn]struct{}
	activeStreams int
	draining      bool

	drainCh      chan struct{}      // closed when Drain begins
	barrierCh    chan chan struct{} // dispatcher barrier handshake
	dispatchDone chan struct{}      // closed once the dispatcher has exited

	streamsTotal    atomic.Uint64
	streamsRejected atomic.Uint64
	rateLimited     atomic.Uint64
	orphanWindows   atomic.Uint64
	droppedWindows  atomic.Uint64
	stallAbandons   atomic.Uint64

	reg    *obs.Registry
	clock  *obs.StageClock // nil when the gateway's registry is disabled
	tracer *tracing.Tracer // the gateway's tracer; nil when tracing is off
}

// New validates the configuration and starts the dispatcher that routes
// gateway output windows to their owning connections.
func New(cfg Config) (*Server, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:          cfg,
		gw:           cfg.Gateway,
		mux:          http.NewServeMux(),
		limiter:      newLimiter(cfg.RatePerSec, cfg.Burst, cfg.now),
		owners:       make(map[string]*streamConn),
		conns:        make(map[*streamConn]struct{}),
		drainCh:      make(chan struct{}),
		barrierCh:    make(chan chan struct{}),
		dispatchDone: make(chan struct{}),
		reg:          cfg.Gateway.Obs(),
		tracer:       cfg.Gateway.Tracer(),
	}
	s.clock = obs.NewStageClock(s.reg)
	s.registerMetrics()
	s.mux.Handle("POST /v1/stream", s.instrument("stream", s.handleStream))
	s.mux.Handle("POST /v1/protect", s.instrument("protect", s.handleProtect))
	s.mux.Handle("GET /v1/stats", s.instrument("stats", s.handleStats))
	s.mux.Handle("GET /v1/deployment", s.instrument("deployment", s.handleDeployment))
	s.mux.Handle("POST /v1/reconfigure", s.instrument("reconfigure", s.handleReconfigure))
	s.mux.Handle("GET /v1/resume", s.instrument("resume", s.handleResume))
	s.mux.Handle("GET /v1/replay", s.instrument("replay", s.handleReplay))
	s.mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	go s.dispatch()
	return s, nil
}

// registerMetrics exposes the front-end's counters on the gateway's
// registry — Func-backed reads of the atomics the server already keeps.
func (s *Server) registerMetrics() {
	s.reg.CounterFunc("lppm_server_streams_total",
		"stream connections admitted", nil, s.streamsTotal.Load)
	s.reg.CounterFunc("lppm_server_streams_rejected_total",
		"stream connections refused by the concurrency cap (503)", nil, s.streamsRejected.Load)
	s.reg.CounterFunc("lppm_server_rate_limited_total",
		"requests refused by the per-tenant token bucket (429)", nil, s.rateLimited.Load)
	s.reg.CounterFunc("lppm_server_orphan_windows_total",
		"flushed windows with no owning connection", nil, s.orphanWindows.Load)
	s.reg.CounterFunc("lppm_server_dropped_windows_total",
		"windows dropped on abandoned connections", nil, s.droppedWindows.Load)
	s.reg.CounterFunc("lppm_server_stall_abandons_total",
		"streams abandoned on a dead or stalled response sink (write-stall deadline included)",
		nil, s.stallAbandons.Load)
	s.reg.GaugeFunc("lppm_server_active_streams",
		"concurrent /v1/stream connections", nil, func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.activeStreams)
		})
	s.reg.GaugeFunc("lppm_server_draining",
		"1 while the server drains, 0 while serving", nil, func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.draining {
				return 1
			}
			return 0
		})
}

// epMetrics is one endpoint's pre-registered instruments: request counts by
// status class plus an in-flight gauge. Pre-registration keeps the request
// path to plain atomic updates.
type epMetrics struct {
	inflight *obs.Gauge
	// classes is indexed by status/100; unreachable classes fall back to
	// index 0 ("other").
	classes [6]*obs.Counter
}

func (m *epMetrics) done(code int) {
	i := code / 100
	if i < 0 || i > 5 || m.classes[i] == nil {
		i = 0
	}
	m.classes[i].Inc()
}

// instrument wraps a handler with the endpoint's request metrics. The
// wrapper's writer preserves ResponseController access (Unwrap) and
// flushing, so the stream handler's full-duplex machinery is unaffected.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	m := &epMetrics{
		inflight: s.reg.Gauge("lppm_http_inflight",
			"requests currently being served", obs.Labels{"endpoint": endpoint}),
	}
	for _, c := range []struct {
		idx   int
		class string
	}{{0, "other"}, {2, "2xx"}, {4, "4xx"}, {5, "5xx"}} {
		m.classes[c.idx] = s.reg.Counter("lppm_http_requests_total",
			"requests served, by status class", obs.Labels{"endpoint": endpoint, "class": c.class})
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.inflight.Add(1)
		defer m.inflight.Add(-1)
		sw := &statusWriter{ResponseWriter: w}
		var sp *tracing.Span
		if s.tracer != nil {
			// W3C propagation: continue the client's trace when the
			// request carries a valid traceparent (Extract treats a
			// malformed header as absent — fresh root, never an error),
			// otherwise head-sample a server-side root.
			if remote := tracing.Extract(r.Header.Get(tracing.Header)); remote.Sampled() {
				sp = s.tracer.Child(remote, "http."+endpoint)
			} else {
				sp = s.tracer.Root("http." + endpoint)
			}
			if sp != nil {
				r = r.WithContext(tracing.ContextWithSpan(r.Context(), sp))
			}
		}
		h(sw, r)
		code := sw.statusCode()
		m.done(code)
		sp.AttrInt("status", int64(code)).End()
	})
}

// statusWriter records the response status for the endpoint metrics while
// staying transparent to everything the handlers need from the underlying
// writer: Unwrap hands http.ResponseController the real writer (full
// duplex, deadlines), Flush keeps refusal answers and window-granular
// streaming working.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) statusCode() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain shuts the serving path down gracefully: new work is refused (503),
// stream intake stops, and the gateway drain flushes every per-user stream
// exactly once — each still-connected client receives its tail windows
// before its response ends. Drain returns once every flushed window has
// been routed, or with the context's error if the deadline passes first.
// Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	s.mu.Unlock()
	if first {
		close(s.drainCh)
	}
	// Close flushes every user's remainder and closes Output, which ends
	// the dispatcher, which closes every connection's window queue.
	err := s.gw.Close()
	select {
	case <-s.dispatchDone:
		return err
	case <-ctx.Done():
		return errors.Join(err, ctx.Err())
	}
}

// dispatch is the gateway's sole Output consumer: it routes each flushed
// window to the connection owning the window's user. Barrier requests let a
// finishing stream establish "everything flushed so far has been routed":
// the dispatcher drains what the output channel already holds before
// acknowledging, and since it acknowledges from its own loop, no route for
// the requester can still be in flight afterwards.
func (s *Server) dispatch() {
	out := s.gw.Output()
	for {
		select {
		case wnd, ok := <-out:
			if !ok {
				s.finish()
				return
			}
			s.route(wnd)
		case ack := <-s.barrierCh:
			for drained := false; !drained; {
				select {
				case wnd, ok := <-out:
					if !ok {
						close(ack)
						s.finish()
						return
					}
					s.route(wnd)
				default:
					drained = true
				}
			}
			close(ack)
		}
	}
}

// route hands one flushed window to its owner, or drops it when the owner
// is gone (client left) or was never registered (windows flushed by the
// gateway drain after their connection ended).
func (s *Server) route(wnd service.Window) {
	recs := wnd.Records
	if len(recs) == 0 {
		return
	}
	s.mu.Lock()
	c := s.owners[recs[0].User]
	s.mu.Unlock()
	if c == nil {
		s.orphanWindows.Add(1)
		return
	}
	tw := timedWindow{recs: recs, span: wnd.Span}
	// A traced window gets its dispatch stamp even when the stage clock
	// is off: the window's trace already opted in upstream.
	if s.clock != nil || (s.tracer != nil && wnd.Span.Sampled()) {
		tw.ns = obs.Stamp()
	}
	select {
	case c.windows <- tw:
	case <-c.gone:
		s.droppedWindows.Add(1)
	}
}

// finish runs when the gateway output closes (drain complete): every
// still-open connection gets its end-of-stream, and barrier waiters are
// released via dispatchDone.
func (s *Server) finish() {
	s.mu.Lock()
	conns := make([]*streamConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c) //lppm:allow maporder -- close order across connections is observable only as shutdown interleaving, which is already concurrent; nothing numeric accumulates
	}
	s.owners = make(map[string]*streamConn)
	s.conns = make(map[*streamConn]struct{})
	s.mu.Unlock()
	for _, c := range conns {
		c.closeWindows()
	}
	close(s.dispatchDone)
}

// awaitDispatch blocks until every window the gateway has emitted so far
// has been routed.
func (s *Server) awaitDispatch() {
	ack := make(chan struct{})
	select {
	case s.barrierCh <- ack:
		<-ack
	case <-s.dispatchDone:
	}
}

// claim registers the connection as the user's owner, reporting whether
// this call established the ownership (first record of the user on this
// connection). A user already owned by another live connection is a
// conflict: two writers would interleave one stream and windows could
// not be attributed.
func (s *Server) claim(user string, c *streamConn) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.owners[user]; ok {
		if cur != c {
			return false, fmt.Errorf("server: user %q is already streaming on another connection", user)
		}
		return false, nil
	}
	s.owners[user] = c
	c.users[user] = struct{}{}
	return true, nil
}

// releaseStream ends a connection's serving: flush each owned user's
// pending tail through the gateway, wait for the dispatcher to route every
// resulting window, then unregister and close the window queue. If the
// gateway is already closing (server drain), the handover is the other way
// around — the gateway drain flushes every stream exactly once and finish
// closes the queue — so the release simply backs off.
func (s *Server) releaseStream(c *streamConn) {
	s.mu.Lock()
	users := make([]string, 0, len(c.users))
	for u := range c.users {
		users = append(users, u)
	}
	s.mu.Unlock()
	sort.Strings(users)
	for _, u := range users {
		if err := s.gw.FlushUser(u); err != nil {
			// ErrClosed or a canceled context: the drain owns the tail.
			return
		}
	}
	s.awaitDispatch()
	s.mu.Lock()
	for _, u := range users {
		if s.owners[u] == c {
			delete(s.owners, u)
		}
	}
	delete(s.conns, c)
	s.mu.Unlock()
	// Post-barrier and unregistered: no dispatcher send can be in flight
	// for this connection, so closing its queue is race-free.
	c.closeWindows()
}

// handleStream serves POST /v1/stream: a full-duplex NDJSON exchange. The
// request body is scanned record-at-a-time into the gateway; flushed
// windows stream back as they emerge. The response ends when the client
// finishes sending (EOF) and the tail windows have been delivered, or when
// the server drains. Errors surface in the X-Stream-Error trailer so the
// body stays pure records.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	rc := http.NewResponseController(w)
	// HTTP/1.1 needs explicit full duplex to read the body while the
	// response streams; HTTP/2 is duplex natively, where this errors and
	// is safely ignored. It must precede even the admission answers: the
	// first response flush on a non-duplex HTTP/1.1 connection consumes
	// the unread request body, and a rejected streaming client holding
	// its body open would deadlock the refusal handshake.
	_ = rc.EnableFullDuplex() //lppm:allow droppederr -- errors exactly on HTTP/2, which is duplex natively (see comment above)
	// One stream, one connection: a stream body is not guaranteed to be
	// consumed to EOF (admission refusal, drain, abort), and net/http's
	// keep-alive machinery must not try to serve a second request behind
	// a body a goroutine may still be reading.
	w.Header().Set("Connection", "close")
	if !s.admitStream(w, r) {
		return
	}
	defer func() {
		s.mu.Lock()
		s.activeStreams--
		s.mu.Unlock()
	}()
	c := newStreamConn(s.cfg.WindowBuffer)
	defer c.abandon()
	if sp := tracing.SpanFromContext(r.Context()); sp != nil {
		// Before the reader goroutine starts, so the write is race-free.
		c.trace = sp.Context()
	}
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()

	w.Header().Set("Content-Type", ndjsonContentType)
	w.Header().Set("Trailer", streamErrTrailer)
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush() //lppm:allow droppederr -- release headers so the client unblocks before the first window; a dead sink surfaces on the first window write

	readDone := make(chan error, 1)
	go func() { readDone <- s.readStream(r, c) }()

	writeErr := s.writeStream(w, rc, c)
	var readErr error
	if writeErr != nil {
		// Dead response sink: mark the connection gone so the dispatcher
		// drops instead of blocking, then collect the reader if it has
		// already finished — if not, it cleans up on its own once the
		// handler return tears the request down.
		s.stallAbandons.Add(1)
		c.abandon()
		select {
		case readErr = <-readDone:
		default:
		}
	} else {
		// The window queue closed: either the reader finished the
		// end-of-stream sequence, or the server is draining and the
		// reader may still be blocked on an idle body — kick it loose.
		select {
		case readErr = <-readDone:
		case <-s.drainCh:
			_ = rc.SetReadDeadline(time.Now()) //lppm:allow droppederr -- best-effort kick of a blocked reader; unsupported deadlines only mean the reader exits via request teardown instead
			readErr = <-readDone
		}
	}
	switch {
	case readErr != nil && !errors.Is(readErr, errDraining):
		w.Header().Set(streamErrTrailer, readErr.Error())
		// A real stream error (not the routine drain handover) freezes
		// the flight recorder, so the post-mortem has the spans and log
		// events leading up to it.
		s.tracer.Flight().Snapshot("stream error: " + readErr.Error())
	case readErr != nil:
		w.Header().Set(streamErrTrailer, errDraining.Error())
	case writeErr != nil:
		// Best effort: if the sink died the trailer rarely arrives.
		w.Header().Set(streamErrTrailer, writeErr.Error())
		s.tracer.Flight().Snapshot("stream write failed: " + writeErr.Error())
	}
}

// readStream is the connection's intake half: scan the body, claim each
// record's user, ingest, and on end of stream run the release sequence so
// the tail windows reach the writer. The returned error is what the
// trailer reports; a drain abort leaves release to the gateway drain.
func (s *Server) readStream(r *http.Request, c *streamConn) error {
	scanErr := trace.ScanRecords(r.Body, wireFormat, func(rec trace.Record) error {
		select {
		case <-s.drainCh:
			return errDraining
		case <-c.gone:
			return context.Canceled
		default:
		}
		claimed, err := s.claim(rec.User, c)
		if err != nil {
			return err
		}
		if claimed && c.trace.Sampled() {
			// First record of this user on a traced connection: continue
			// the trace into the gateway, so the user's windows are
			// recorded under the request span (and, through it, under a
			// client-originated traceparent).
			_ = s.gw.SetUserTrace(rec.User, c.trace) //lppm:allow droppederr -- best-effort diagnostic binding: losing it to a shutdown race costs spans only, and the Ingest below surfaces the closure
		}
		if err := s.gw.Ingest(rec); err != nil {
			if errors.Is(err, service.ErrClosed) {
				return errDraining
			}
			return err
		}
		return nil
	})
	// A drain that began while the scan was blocked surfaces as whatever
	// error the interrupted body read produced; normalize either shape to
	// the drain handover — the gateway drain flushes this connection's
	// users exactly once and finish() ends the window queue, so releasing
	// here would race it.
	if !errors.Is(scanErr, errDraining) {
		select {
		case <-s.drainCh:
			scanErr = errDraining
		default:
		}
	}
	if errors.Is(scanErr, errDraining) {
		return errDraining
	}
	s.releaseStream(c)
	return scanErr
}

// writeStream is the connection's delivery half: windows out of the queue,
// records onto the wire. It takes every window already queued along with
// the first and pays the stall deadline and both flushes once for the set,
// so clients still see output with window granularity, never buffer
// granularity, without a flush per window when windows queue up.
func (s *Server) writeStream(w http.ResponseWriter, rc *http.ResponseController, c *streamConn) error {
	rw, err := trace.NewRecordWriter(w, wireFormat)
	if err != nil {
		return err
	}
	var set []timedWindow
	for tw := range c.windows {
		set = append(set[:0], tw)
		for len(c.windows) > 0 { // the sole receiver: a queued window is there to take
			set = append(set, <-c.windows)
		}
		// Each window's dispatch stage ends at one pickup stamp for the
		// set, and its write stage at the set's flush. A traced window
		// reuses these readings for its last two spans.
		var pickup int64
		if s.clock != nil || s.tracer != nil {
			pickup = obs.Stamp()
		}
		// Rolling stall deadline: a client that keeps reading never hits
		// it; one that stopped reading errors this write, the handler
		// abandons the connection, and route() stops blocking on it —
		// one stalled peer cannot wedge the shared dispatcher for good.
		_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.WriteStallTimeout)) //lppm:allow droppederr -- best-effort stall guard; without deadline support a stalled peer is still caught by request teardown
		for _, tw := range set {
			if pickup != 0 {
				s.clock.Observe(obs.StageDispatch, tw.ns, pickup)
				if s.traced(tw) {
					s.tracer.ChildAt(tw.span, "dispatch", tw.ns).EndAt(pickup)
				}
			}
			for _, rec := range tw.recs {
				if err := rw.Write(rec); err != nil {
					return err
				}
			}
		}
		if err := rw.Flush(); err != nil {
			return err
		}
		if err := rc.Flush(); err != nil {
			return err
		}
		if pickup != 0 {
			end := obs.Stamp()
			for _, tw := range set {
				s.clock.Observe(obs.StageWrite, pickup, end)
				if s.traced(tw) {
					s.tracer.ChildAt(tw.span, "write", pickup).EndAt(end)
				}
			}
		}
		clear(set) // drop the records until the next set reuses the array
	}
	// Clear the deadline for the trailer write.
	_ = rc.SetWriteDeadline(time.Time{}) //lppm:allow droppederr -- best-effort clear; pairs with the best-effort set above
	return nil
}

// traced reports whether a window extends its trace into the dispatch
// and write spans: sampled upstream and stamped by route.
func (s *Server) traced(tw timedWindow) bool {
	return s.tracer != nil && tw.span.Sampled() && tw.ns != 0
}

// handleProtect serves POST /v1/protect: a unary batch through the current
// serving deployment. The endpoint is stateless — per-user randomness is
// derived by name from the configured seed, so identical requests protect
// identically, and a request equals the batch file path under that seed.
func (s *Server) handleProtect(w http.ResponseWriter, r *http.Request) {
	if !s.admitUnary(w, r) {
		return
	}
	perUser := make(map[string][]trace.Record)
	var order []string
	n := 0
	errTooLarge := fmt.Errorf("server: batch exceeds %d records", s.cfg.MaxBatchRecords)
	scanErr := trace.ScanRecords(r.Body, wireFormat, func(rec trace.Record) error {
		if n >= s.cfg.MaxBatchRecords {
			return errTooLarge
		}
		n++
		if _, ok := perUser[rec.User]; !ok {
			order = append(order, rec.User)
		}
		perUser[rec.User] = append(perUser[rec.User], rec)
		return nil
	})
	if errors.Is(scanErr, errTooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge, scanErr.Error())
		return
	}
	if scanErr != nil {
		httpError(w, http.StatusBadRequest, scanErr.Error())
		return
	}
	ds := trace.NewDataset()
	for _, u := range order {
		t, err := trace.NewTrace(u, perUser[u])
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		ds.Add(t)
	}
	out, err := s.gw.ServingDeployment().Protect(ds, rng.New(s.cfg.Seed))
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", ndjsonContentType)
	rw, err := trace.NewRecordWriter(w, wireFormat)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	for _, t := range out.Traces() {
		for _, rec := range t.Records {
			if err := rw.Write(rec); err != nil {
				return // sink died; nothing useful left to report
			}
		}
	}
	_ = rw.Flush() //lppm:allow droppederr -- unary response tail: the client observes the truncation; the handler has no channel left to report it on
}

// handleReconfigure serves POST /v1/reconfigure: a manual hot-swap. The
// request's params are merged over the serving mechanism's defaults (the
// same semantics as building a deployment from explicit values) and
// validated before Gateway.Swap makes them live at window boundaries.
func (s *Server) handleReconfigure(w http.ResponseWriter, r *http.Request) {
	if !s.admitUnary(w, r) {
		return
	}
	var req reconfigureRequest
	if err := decodeJSONBody(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	mech := s.gw.ServingDeployment().Mechanism
	dep, err := core.NewDeployment(mech, lppm.Params(req.Params))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	for u, p := range req.Overrides {
		if err := dep.Override(u, lppm.Params(p)); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	if err := s.gw.Swap(dep); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, reconfigureResponse{Generation: s.gw.Generation()})
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !s.allowTenant(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}

// handleDeployment serves GET /v1/deployment.
func (s *Server) handleDeployment(w http.ResponseWriter, r *http.Request) {
	if !s.allowTenant(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, s.gw.Deployment())
}

// handleHealthz serves GET /healthz: 200 while serving, 503 while draining
// so load balancers stop routing before the drain completes. When the
// process resumed from a journal, the body carries the
// recovery report (users restored, generation, segments folded).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	resp := healthResponse{Status: "ok", Recovery: s.cfg.Recovery}
	if draining {
		resp.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleResume serves GET /v1/resume?user=U: the journal's progress
// counters for one user. A client reconnecting after a crash (its own or
// the server's) trims its send queue to DurableIn, resends only from In —
// records a live server has absorbed must not be re-sent, or the
// mechanism would draw fresh randomness for them — and fetches the
// protected output it never received via /v1/replay. Answers 404 when
// the gateway runs journal-less: resume-by-counter is exactly the
// capability the journal adds.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	if !s.admitUnary(w, r) {
		return
	}
	jw := s.gw.Journal()
	if jw == nil {
		httpError(w, http.StatusNotFound, "server: no journal configured")
		return
	}
	user := r.URL.Query().Get("user")
	if user == "" {
		httpError(w, http.StatusBadRequest, "server: missing user parameter")
		return
	}
	// The journal is write-behind; wait for the pump so the counters
	// cover every window emitted before this request.
	if err := s.gw.JournalBarrier(); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := resumeResponse{User: user}
	if us := jw.UserResume(user); us != nil {
		resp.Known = true
		resp.Generation = us.Generation
		resp.In = us.In
		resp.DurableIn = us.DurableIn
		resp.Out = us.Out
		resp.Windows = us.Windows
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReplay serves GET /v1/replay?user=U&from=N: the retained protected
// records with absolute output index >= N, as NDJSON in emission order —
// the delivery gap of a client that crashed (or lost its connection) after
// the journal made a window durable but before the bytes arrived. The
// ring is bounded (8 windows per user), so a gap older than the ring
// answers 410: the journal can prove the records existed but no longer
// holds them.
func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	if !s.admitUnary(w, r) {
		return
	}
	jw := s.gw.Journal()
	if jw == nil {
		httpError(w, http.StatusNotFound, "server: no journal configured")
		return
	}
	q := r.URL.Query()
	user := q.Get("user")
	if user == "" {
		httpError(w, http.StatusBadRequest, "server: missing user parameter")
		return
	}
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("server: bad from parameter: %v", err))
		return
	}
	// As in handleResume: the ring must cover every emitted window before
	// the gap is computed, or an in-flight window could be skipped.
	if err := s.gw.JournalBarrier(); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	us := jw.UserResume(user)
	if us == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("server: no checkpoint for user %q", user))
		return
	}
	recs, ok := us.ReplayFrom(from)
	if !ok {
		httpError(w, http.StatusGone,
			fmt.Sprintf("server: retained windows for %q no longer reach back to %d", user, from))
		return
	}
	w.Header().Set("Content-Type", ndjsonContentType)
	rw, err := trace.NewRecordWriter(w, wireFormat)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	for _, rec := range recs {
		if err := rw.Write(rec); err != nil {
			return // sink died; nothing useful left to report
		}
	}
	_ = rw.Flush() //lppm:allow droppederr -- unary response tail: the client observes the truncation; the handler has no channel left to report it on
}
