package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/service"
)

// tenantHeader names the request header identifying the tenant for rate
// limiting; absent, the client's host is the tenant.
const tenantHeader = "X-Tenant"

// maxTenantBuckets caps the limiter's tenant table. X-Tenant is
// client-controlled, so without a bound a client rotating tenant names
// would grow the map without limit; past the cap, long-idle buckets are
// evicted first, then arbitrary ones. (An evicted tenant restarts with a
// full burst — rotation therefore also sidesteps the *limit* itself, which
// is inherent to client-supplied identity: deploy behind an auth proxy
// that pins X-Tenant when the rate limit must be adversary-proof.)
const maxTenantBuckets = 4096

// limiter is a per-tenant token bucket: Rate tokens per second refill up to
// Burst, one token per admitted request. nil or zero-rate admits everything.
type limiter struct {
	rate  float64
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*tokenBucket
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

func newLimiter(rate float64, burst int, now func() time.Time) *limiter {
	if rate <= 0 {
		return nil
	}
	return &limiter{
		rate:    rate,
		burst:   float64(burst),
		now:     now,
		buckets: make(map[string]*tokenBucket),
	}
}

// allow takes one token from the tenant's bucket, reporting whether one was
// available. Buckets start full: a tenant's first Burst requests always
// pass, and sustained load settles at Rate per second.
func (l *limiter) allow(tenant string) bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b := l.buckets[tenant]
	if b == nil {
		if len(l.buckets) >= maxTenantBuckets {
			l.evict(now)
		}
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// evict makes room in a full tenant table: idle buckets (no request for a
// second — already refilled past any state worth keeping) go first, and if
// the cap was reached within that second, arbitrary ones follow until a
// quarter of the table is free. Called with the lock held.
func (l *limiter) evict(now time.Time) {
	target := maxTenantBuckets - maxTenantBuckets/4
	for tenant, b := range l.buckets {
		if len(l.buckets) <= target {
			return
		}
		if now.Sub(b.last) > time.Second {
			delete(l.buckets, tenant)
		}
	}
	for tenant := range l.buckets {
		if len(l.buckets) <= target {
			return
		}
		delete(l.buckets, tenant)
	}
}

// tenantOf identifies the requester for rate limiting: the X-Tenant header
// when present, the remote host otherwise.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get(tenantHeader); t != "" {
		return t
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil && host != "" {
		return host
	}
	if r.RemoteAddr != "" {
		return r.RemoteAddr
	}
	return "default"
}

// allowTenant applies the per-tenant rate limit, answering 429 on refusal.
func (s *Server) allowTenant(w http.ResponseWriter, r *http.Request) bool {
	if s.limiter.allow(tenantOf(r)) {
		return true
	}
	s.rateLimited.Add(1)
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusTooManyRequests, "server: tenant rate limit exceeded")
	return false
}

// admitUnary is the admission gate for the unary endpoints: rate limit,
// then drain state.
func (s *Server) admitUnary(w http.ResponseWriter, r *http.Request) bool {
	if !s.allowTenant(w, r) {
		return false
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		httpError(w, http.StatusServiceUnavailable, "server: draining")
		return false
	}
	return true
}

// admitStream is the admission gate for /v1/stream: rate limit, drain
// state, then the concurrent-stream cap. On success the stream is counted
// active; the handler decrements on exit.
func (s *Server) admitStream(w http.ResponseWriter, r *http.Request) bool {
	if !s.allowTenant(w, r) {
		return false
	}
	switch s.tryAdmitStream() {
	case admitOK:
		s.streamsTotal.Add(1)
		return true
	case admitDraining:
		httpError(w, http.StatusServiceUnavailable, "server: draining")
		return false
	default: // admitFull
		s.streamsRejected.Add(1)
		httpError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("server: %d concurrent streams already active", s.cfg.MaxStreams))
		return false
	}
}

type admitResult int

const (
	admitOK admitResult = iota
	admitDraining
	admitFull
)

// tryAdmitStream checks drain state and the stream cap and claims a slot,
// all under one lock hold; the HTTP responses happen after release.
func (s *Server) tryAdmitStream() admitResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return admitDraining
	}
	if s.cfg.MaxStreams > 0 && s.activeStreams >= s.cfg.MaxStreams {
		return admitFull
	}
	s.activeStreams++
	return admitOK
}

// errorResponse is the JSON body of every non-200 answer.
type errorResponse struct {
	Error string `json:"error"`
}

// healthResponse is GET /healthz's body. Error carries the journal's
// failure while the status is degraded. Recovery is present when the
// process resumed from a journal: what service.Recover reconstructed at
// startup.
type healthResponse struct {
	Status   string                `json:"status"`
	Error    string                `json:"error,omitempty"`
	Recovery *service.RecoveryInfo `json:"recovery,omitempty"`
}

// ResumeRequest is POST /v1/resume's body: the user and how many of
// their protected records the client has received.
type ResumeRequest struct {
	User      string `json:"user"`
	Delivered uint64 `json:"delivered"`
}

// ResumeResponse is POST /v1/resume's answer for one user. Known is false
// when the journal has no checkpoint for the user, who resumes from zero.
// From is the input count to resend from: the boundary the server rewound
// the stream to (Rewound), or the live absorbed count — a reconnecting
// client must not resend below it, or the mechanism would draw fresh
// randomness for records it already protected. DurableIn is what has
// reached stable storage: the client must not trim its send buffer below
// it, because a crash can roll the server back that far. Skip is how many
// regenerated records the client drops because it already holds them.
type ResumeResponse struct {
	User      string `json:"user"`
	Known     bool   `json:"known"`
	Rewound   bool   `json:"rewound"`
	From      uint64 `json:"from"`
	DurableIn uint64 `json:"durable_in"`
	Skip      uint64 `json:"skip"`
}

// reconfigureRequest is POST /v1/reconfigure's body: parameter values
// merged over the serving mechanism's defaults, plus optional per-user
// overrides merged over those.
type reconfigureRequest struct {
	Params    map[string]float64            `json:"params"`
	Overrides map[string]map[string]float64 `json:"overrides,omitempty"`
}

// reconfigureResponse reports the generation the swap produced.
type reconfigureResponse struct {
	Generation uint64 `json:"generation"`
}

// ServerStats are the front-end's own counters in /v1/stats.
type ServerStats struct {
	ActiveStreams   int    `json:"active_streams"`
	StreamsTotal    uint64 `json:"streams_total"`
	StreamsRejected uint64 `json:"streams_rejected"`
	RateLimited     uint64 `json:"rate_limited"`
	OrphanWindows   uint64 `json:"orphan_windows"`
	DroppedWindows  uint64 `json:"dropped_windows"`
	Draining        bool   `json:"draining"`
}

// GatewayStats is the gateway's aggregate snapshot on the wire.
type GatewayStats struct {
	Ingested   uint64 `json:"ingested"`
	Emitted    uint64 `json:"emitted"`
	Flushes    uint64 `json:"flushes"`
	Dropped    uint64 `json:"dropped"`
	Reconfigs  uint64 `json:"reconfigs"`
	Swaps      uint64 `json:"swaps"`
	Generation uint64 `json:"generation"`
	Users      int    `json:"users"`
	Shards     int    `json:"shards"`
}

// ControllerStats is the reconfiguration loop's snapshot on the wire.
type ControllerStats struct {
	WindowsObserved uint64  `json:"windows_observed"`
	RecordsObserved uint64  `json:"records_observed"`
	UsersTracked    int     `json:"users_tracked"`
	Evaluations     uint64  `json:"evaluations"`
	Swaps           uint64  `json:"swaps"`
	LastPrivacy     float64 `json:"last_privacy"`
	LastUtility     float64 `json:"last_utility"`
	LastError       string  `json:"last_error,omitempty"`
}

// StatsResponse is GET /v1/stats's body.
type StatsResponse struct {
	Server     ServerStats      `json:"server"`
	Gateway    GatewayStats     `json:"gateway"`
	Controller *ControllerStats `json:"controller,omitempty"`
}

// statsSnapshot assembles the /v1/stats body straight from the counters
// the /metrics series are Func-backed reads of, so the two surfaces
// cannot drift, and the body stays whole under obs.Nop(). Field names are
// the legacy wire contract.
func (s *Server) statsSnapshot() StatsResponse {
	s.mu.Lock()
	srv := ServerStats{
		ActiveStreams: s.activeStreams,
		Draining:      s.draining,
	}
	s.mu.Unlock()
	srv.StreamsTotal = s.streamsTotal.Load()
	srv.StreamsRejected = s.streamsRejected.Load()
	srv.RateLimited = s.rateLimited.Load()
	srv.OrphanWindows = s.orphanWindows.Load()
	srv.DroppedWindows = s.droppedWindows.Load()

	gst := s.gw.Stats()
	resp := StatsResponse{
		Server: srv,
		Gateway: GatewayStats{
			Ingested:   gst.Ingested,
			Emitted:    gst.Emitted,
			Flushes:    gst.Flushes,
			Dropped:    gst.Dropped,
			Reconfigs:  gst.Reconfigs,
			Swaps:      gst.Swaps,
			Generation: gst.Generation,
			Users:      gst.Users,
			Shards:     len(gst.PerShard),
		},
	}
	if s.cfg.Controller != nil {
		resp.Controller = controllerStats(s.cfg.Controller.Stats())
	}
	return resp
}

// controllerStats maps the service snapshot to its wire form, stringifying
// the error and squashing non-finite estimates (JSON has no NaN).
func controllerStats(cs service.ControllerStats) *ControllerStats {
	out := &ControllerStats{
		WindowsObserved: cs.WindowsObserved,
		RecordsObserved: cs.RecordsObserved,
		UsersTracked:    cs.UsersTracked,
		Evaluations:     cs.Evaluations,
		Swaps:           cs.Swaps,
		LastPrivacy:     finiteOrZero(cs.LastPrivacy),
		LastUtility:     finiteOrZero(cs.LastUtility),
	}
	if cs.LastErr != nil {
		out.LastError = cs.LastErr.Error()
	}
	return out
}

func finiteOrZero(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

// httpError answers with a JSON error body.
func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// writeJSON answers with a JSON body, best effort on the write itself. The
// response is flushed explicitly: an answer that refuses a streaming
// request (429/503 on /v1/stream) must reach the client while its request
// body is still in flight — buffered, it would sit behind the server-side
// body drain and deadlock the handshake.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) //lppm:allow droppederr -- the response body is best-effort by design: a client gone mid-write has nowhere to report the failure to
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// decodeJSONBody strictly decodes a single JSON object request body.
func decodeJSONBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: bad request body: %w", err)
	}
	return nil
}
