// Package service turns the repository's batch-only configurator into an
// online middleware: a sharded, concurrent protection gateway that ingests
// per-user location streams, routes each user to a shard by identity hash,
// keeps per-user LPPM state, and applies a configured mechanism record-at-
// a-time with bounded queues and batch flushing. It is the serving half the
// paper's framework implies — Analyze/Configure pick the parameter value
// offline, the gateway applies it to live traffic.
package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/lppm"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/rng"
	"repro/internal/trace"
)

// ErrClosed is returned by Ingest after Close or context cancellation.
var ErrClosed = errors.New("service: gateway closed")

// drainGrace is how long a canceled gateway waits for the Output consumer
// before dropping a flushed window.
const drainGrace = time.Second

// Config parameterizes a Gateway.
type Config struct {
	// Mechanism is the LPPM every record passes through.
	Mechanism lppm.Mechanism
	// Params is the mechanism's full parameter assignment (typically a
	// core.Deployment's Params).
	Params lppm.Params
	// Shards is the number of independent worker shards; 0 uses
	// GOMAXPROCS.
	Shards int
	// QueueSize bounds each shard's input queue in records (rounded down
	// to a whole number of stages); 0 uses 1024. A full queue applies
	// backpressure to Ingest.
	QueueSize int
	// FlushEvery is the per-user window size: a user's pending records
	// are protected and emitted once this many have accumulated; 0 uses
	// 32. Drain flushes any remainder.
	FlushEvery int
	// StageSize is the largest ingest batch: records stage per shard and
	// a stage that reaches StageSize travels the queue as one message,
	// amortizing channel and scheduling costs across the batch; 0 uses
	// 32, 1 disables staging. It bounds a batch, not a wait: a shard
	// worker with an empty queue takes whatever is staged, so a record
	// on a non-saturated shard never waits for its stage to fill.
	StageSize int
	// Seed drives all randomness. Per-user streams are derived by name,
	// so output is invariant under the shard count.
	Seed int64
	// Overrides maps user ids to parameter overrides applied on top of
	// Params for that user's records (a core.Deployment's override
	// table). Entries may be partial; they are merged over Params and
	// validated at New.
	Overrides map[string]lppm.Params
	// Obs is the metric registry the gateway (and every component wired
	// to it — controller, HTTP server) registers into; nil gets a fresh
	// private registry. Pass obs.Nop() to disable collection, which also
	// skips the stage clock's wall-clock reads on the hot path.
	Obs *obs.Registry
	// Tracer, when non-nil, records per-window span trees (ingest →
	// shard queue → flush → journal append, continued downstream into
	// dispatch and response write via Window.Span). Span timestamps
	// reuse the stage clock's sampled stamps, so tracing adds no
	// hot-path clock reads beyond the 1-in-obsSampleEvery already
	// budgeted — except for client-traced streams (SetUserTrace), whose
	// explicit opt-in pays its own reads. nil disables tracing.
	Tracer *tracing.Tracer
}

// ConfigFromDeployment wires a step-3 deployment into a gateway
// configuration, leaving the serving knobs at their defaults.
func ConfigFromDeployment(d *core.Deployment, seed int64) Config {
	return Config{Mechanism: d.Mechanism, Params: d.Params, Overrides: d.Overrides, Seed: seed}
}

// normalize fills defaults and validates.
func (c *Config) normalize() error {
	if c.Mechanism == nil {
		return fmt.Errorf("service: nil mechanism")
	}
	if c.Params == nil {
		c.Params = lppm.Defaults(c.Mechanism)
	}
	// Assignment-strict, like the override table: an extra, misspelled
	// key in the base params would serve defaults while looking applied.
	if err := lppm.ValidateAssignment(c.Mechanism, c.Params); err != nil {
		return err
	}
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Shards < 1 {
		return fmt.Errorf("service: Shards must be >= 1, got %d", c.Shards)
	}
	if c.QueueSize == 0 {
		c.QueueSize = 1024
	}
	if c.QueueSize < 1 {
		return fmt.Errorf("service: QueueSize must be >= 1, got %d", c.QueueSize)
	}
	if c.FlushEvery == 0 {
		c.FlushEvery = 32
	}
	if c.FlushEvery < 1 {
		return fmt.Errorf("service: FlushEvery must be >= 1, got %d", c.FlushEvery)
	}
	if c.StageSize == 0 {
		c.StageSize = 32
	}
	if c.StageSize < 1 {
		return fmt.Errorf("service: StageSize must be >= 1, got %d", c.StageSize)
	}
	// A stage never exceeds the queue bound, so QueueSize keeps its
	// records semantics: at most ⌊QueueSize/StageSize⌋·StageSize records
	// queue per shard (plus one stage in flight).
	if c.StageSize > c.QueueSize {
		c.StageSize = c.QueueSize
	}
	if len(c.Overrides) > 0 {
		merged, err := mergeOverrides(c.Mechanism, c.Params, c.Overrides)
		if err != nil {
			return err
		}
		c.Overrides = merged
	}
	return nil
}

// mergeOverrides completes each (possibly partial) per-user override over
// the base assignment and validates it as a full assignment — undeclared
// names are rejected, not silently ignored — so serving code can hand the
// result to the mechanism directly.
func mergeOverrides(m lppm.Mechanism, base lppm.Params, overrides map[string]lppm.Params) (map[string]lppm.Params, error) {
	merged := make(map[string]lppm.Params, len(overrides))
	for u, p := range overrides {
		if u == "" {
			return nil, fmt.Errorf("service: override for empty user id")
		}
		full, err := lppm.MergeAssignment(m, base, p)
		if err != nil {
			return nil, fmt.Errorf("service: override for %q: %w", u, err)
		}
		merged[u] = full
	}
	return merged, nil
}

// ShardStats is one shard's counters at snapshot time.
type ShardStats struct {
	// Ingested counts records accepted into the shard's stage.
	Ingested uint64
	// Emitted counts protected records delivered to Output.
	Emitted uint64
	// Flushes counts protection calls (windows flushed).
	Flushes uint64
	// Dropped counts records lost because cancellation outran delivery.
	Dropped uint64
	// Reconfigs counts per-user streams refreshed to a newer deployment
	// at a window boundary after a Swap.
	Reconfigs uint64
	// Users is the number of per-user streams the shard holds.
	Users int
	// QueueLen is the instantaneous input-queue occupancy, in batches of
	// up to StageSize records.
	QueueLen int
}

// Stats is a point-in-time snapshot of the whole gateway.
type Stats struct {
	// Ingested, Emitted, Flushes, Dropped and Users aggregate the
	// per-shard counters.
	Ingested, Emitted, Flushes, Dropped uint64
	Users                               int
	// Reconfigs aggregates per-shard stream refreshes; Swaps counts
	// successful deployment hot-swaps since New.
	Reconfigs, Swaps uint64
	// Generation identifies the serving deployment (0 = the one New
	// installed; each Swap increments it).
	Generation uint64
	// PerShard holds one entry per shard, in shard order.
	PerShard []ShardStats
}

// userState is one user's stream plus the deployment generation its
// parameters came from (flush refreshes it lazily after a Swap) and the
// cached per-user tap handle (re-resolved when SetTap installs a new tap).
// in/out/windows are the stream's journal counters: input records
// consumed, protected records emitted, windows flushed — exactly what a
// checkpoint records and what the resume protocol reports to clients.
type userState struct {
	us      *lppm.UserStream
	gen     uint64
	in      uint64
	out     uint64
	windows uint64
	tapSrc  *tapHolder
	tap     TapUser
	// remote is the client-originated trace context bound by
	// SetUserTrace (zero when the stream is not client-traced). When
	// sampled, every window of this user is recorded under it.
	remote tracing.SpanContext
}

// shardOp names a control command on a shard's queue.
type shardOp uint8

const (
	opNone  shardOp = iota // a record batch only
	opTrace                // bind traceCtx as the user's remote trace context (SetUserTrace)
	opFlush                // flush the user's pending window now (FlushUser)
	opEvict                // checkpoint the user's stream and drop it (EvictUser)
)

// opVerbs names each command in its caller's errors.
var opVerbs = [...]string{opTrace: "trace bind", opFlush: "flush", opEvict: "evict"}

// shardMsg is one element of a shard's input queue: a batch of staged
// records, or a control command. Commands ride the same queue as records so
// they observe every record staged before them — a FlushUser issued after
// the last Ingest of a user is guaranteed to see that record in the user's
// pending window.
type shardMsg struct {
	batch []trace.Record
	// enqueuedNS is the obs.Stamp at which the batch entered the queue —
	// the start of its queue-residency measurement; 0 when the stage
	// clock and tracer are both disabled, or for unsampled batches.
	enqueuedNS int64
	// stagedNS is the obs.Stamp at which the batch's first record was
	// staged — the ingest-stage start. Set exactly when enqueuedNS is:
	// the tracer reuses the stage clock's sampled stamps to build the
	// batch span tree without new clock reads.
	stagedNS int64
	// op, when not opNone, is a control command for user; traceCtx is
	// opTrace's argument. done, if non-nil, is closed once the command
	// has been processed.
	op       shardOp
	user     string
	traceCtx tracing.SpanContext
	done     chan struct{}
}

// shard is one worker: an ingest stage, a bounded queue of record batches,
// a per-user stream table and counters. Only the shard's goroutine touches
// users; the stage is shared with producers under its own lock.
type shard struct {
	in    chan shardMsg
	users map[string]*userState
	// restore holds checkpoints of users not currently in the table —
	// recovered from the journal at startup or parked by EvictUser. A
	// user's first record after that rebuilds the stream from its entry
	// (lppm.RestoreUserStream). Shard-goroutine-only after newGateway.
	restore map[string]journal.Checkpoint

	stageMu sync.Mutex
	stage   []trace.Record
	dead    bool // no further sends on in; set before in closes
	// idle is set (under stageMu) by a worker that found its queue and
	// stage empty and is about to park; the next partial append clears
	// it and signals wake (capacity 1, never a blocking send).
	idle bool
	wake chan struct{}
	// spare is the backing array of the last batch the worker handled,
	// installed as the stage by its next idle take so that idle takes do
	// not allocate. Shard goroutine only.
	spare []trace.Record
	// stageStartNS is the obs.Stamp at which the stage went empty →
	// non-empty (guarded by stageMu); 0 when empty, when the clock is
	// disabled, or when this batch is not in the 1-in-obsSampleEvery
	// measurement sample.
	stageStartNS int64
	// stageTick counts batches (guarded by stageMu) and flushTick counts
	// window flushes (shard goroutine only); both drive the deterministic
	// 1-in-obsSampleEvery stage-clock sampling.
	stageTick uint64
	flushTick uint64
	// batch is the span context of the sampled batch currently being
	// handled (zero for unsampled batches); windows flushed while
	// processing that batch parent under it. Shard goroutine only.
	batch tracing.SpanContext
	// remote parks SetUserTrace bindings for users with no stream yet;
	// applied (and removed) when the user's state is created. Shard
	// goroutine only after newGateway.
	remote map[string]tracing.SpanContext

	ingested  atomic.Uint64
	emitted   atomic.Uint64
	flushes   atomic.Uint64
	dropped   atomic.Uint64
	reconfigs atomic.Uint64
	userN     atomic.Int64
}

// deployState is the immutable serving deployment a gateway applies:
// installed at New, replaced atomically by Swap. Shard workers load it at
// stream creation and at every window boundary, so a swap becomes visible
// to each user exactly between two windows and never inside one.
type deployState struct {
	gen       uint64
	mech      lppm.Mechanism
	params    lppm.Params
	overrides map[string]lppm.Params
}

// paramsFor returns the assignment serving one user.
func (d *deployState) paramsFor(user string) lppm.Params {
	if p, ok := d.overrides[user]; ok {
		return p
	}
	return d.params
}

// Tap observes a sampled fraction of flushed windows — the reconfiguration
// controller's feed. The gateway asks the tap for one TapUser per user
// stream and caches it on the stream, so the per-flush sampling decision
// runs without any shared lookup; User is called once per (user, SetTap)
// from shard goroutines and must be safe for concurrent use.
type Tap interface {
	User(user string) TapUser
}

// TapUser is a tap's per-user-stream state. The gateway calls it from
// exactly one shard goroutine at a time (a user lives on one shard), on
// the flush hot path: Sample must be cheap and Observe must never block on
// the gateway's own Output. Observe receives the window's pre-protection
// records (a copy the tap owns) and its protected records (shared with the
// Output consumer — read-only; copy to retain).
type TapUser interface {
	// Sample decides, before protection, whether this n-record window is
	// observed.
	Sample(n int) bool
	// Observe delivers a sampled window after a successful flush, tagged
	// with the deployment generation it was protected under so observers
	// spanning a Swap can tell old-deployment output from new.
	Observe(gen uint64, actual, protected []trace.Record)
}

// Gateway is the online protection middleware. Create with New, feed with
// Ingest (any number of goroutines), consume Output until it closes, stop
// with Close. See package comment for the data flow.
type Gateway struct {
	cfg    Config
	ctx    context.Context //lppm:allow ctxflow -- the context IS the gateway's lifetime (fixed at New, honored by every shard loop's select); callers cancel it to stop the pipeline
	root   *rng.Source
	shards []*shard
	out    chan Window
	done   chan struct{} // closed once every shard has exited
	tracer *tracing.Tracer

	deploy atomic.Pointer[deployState]
	// swapMu serializes Swap so the deploy journal record and the
	// deployment installation are one atomic step: no checkpoint taken
	// under generation G can enter the journal queue before the gen-G
	// deploy record (flush enqueues under the shard goroutine after
	// loading the deployment, and the deployment only becomes loadable
	// after its record is enqueued — the FIFO queue preserves that order
	// on disk). It also guards jqClosed, so enqueues from Swap and
	// JournalBarrier never race the queue close.
	swapMu   sync.Mutex
	jqClosed bool
	swaps    atomic.Uint64
	tap      atomic.Pointer[tapHolder]

	// jw, when non-nil, is the stream journal. Appends are write-behind:
	// flush and evict enqueue checkpoints on jq and the pump goroutine
	// group-commits them off the protection path (one write and one fsync
	// per drained queue), so the journal's cost on the serving hot path is
	// one bounded channel send.
	// Crash safety does not rest on emit-after-append ordering but on the
	// resume protocol: clients trim their send buffers only to the
	// journal's *durable* In (journal.Writer.UserResume) and re-protection
	// after a resend is deterministic, so any window the journal lost is
	// regenerated bit-identically. Swap appends synchronously through the
	// queue (deploy records gate the swap); Close drains the queue and
	// then closes the journal, after the last drain flush.
	jw *journal.Writer
	// jq feeds the journal pump; nil when jw is nil. Bounded: a stalled
	// disk eventually backpressures flushes instead of growing the heap.
	jq chan journalReq
	// jpumpEnd closes when the pump goroutine has drained jq and exited.
	jpumpEnd chan struct{}
	// jhist measures the sampled cost the hot path actually pays for
	// journaling — the enqueue wait, which is ~zero until the pump falls
	// behind (nil when jw is nil or metrics are disabled).
	jhist *obs.Histogram

	reg   *obs.Registry
	clock *obs.StageClock // nil when reg is disabled

	wg        sync.WaitGroup
	closeOnce sync.Once

	graceOnce  sync.Once
	graceUntil time.Time

	errMu sync.Mutex
	err   error
}

// tapHolder boxes a Tap so the interface can live in an atomic.Pointer.
type tapHolder struct{ t Tap }

// New validates the configuration and starts the shard workers. The context
// bounds the gateway's lifetime: cancellation stops intake, drains the
// bounded queues, flushes every per-user window and closes Output.
//
// A gateway built by New does not journal; use Recover to open (or
// create) a stream journal and resume from it.
func New(ctx context.Context, cfg Config) (*Gateway, error) {
	return newGateway(ctx, cfg, nil, 0, nil)
}

// newGateway is the shared constructor: jw, when non-nil, is an
// Install-ed journal writer the gateway owns from now on; gen is the
// deployment generation to resume at; restore seeds the lazy per-user
// restore tables from journaled checkpoints.
func newGateway(ctx context.Context, cfg Config, jw *journal.Writer, gen uint64, restore map[string]journal.Checkpoint) (*Gateway, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:    cfg,
		ctx:    ctx,
		root:   rng.New(cfg.Seed),
		shards: make([]*shard, cfg.Shards),
		out:    make(chan Window, cfg.Shards),
		done:   make(chan struct{}),
		tracer: cfg.Tracer,
		reg:    cfg.Obs,
		jw:     jw,
	}
	if g.reg == nil {
		g.reg = obs.NewRegistry()
	}
	g.clock = obs.NewStageClock(g.reg)
	if jw != nil && !g.reg.Disabled() {
		g.jhist = g.reg.Histogram("lppm_journal_append_ns",
			"sampled hot-path journal enqueue latency", nil)
	}
	if jw != nil {
		g.jq = make(chan journalReq, journalQueueDepth)
		g.jpumpEnd = make(chan struct{})
		go g.journalPump()
	}
	g.deploy.Store(&deployState{
		gen:       gen,
		mech:      cfg.Mechanism,
		params:    cfg.Params.Clone(),
		overrides: cfg.Overrides,
	})
	batches := cfg.QueueSize / cfg.StageSize
	if batches < 1 {
		batches = 1
	}
	for i := range g.shards {
		s := &shard{
			in:      make(chan shardMsg, batches),
			wake:    make(chan struct{}, 1),
			users:   make(map[string]*userState),
			restore: make(map[string]journal.Checkpoint),
			remote:  make(map[string]tracing.SpanContext),
		}
		g.shards[i] = s
	}
	// Distribute journaled checkpoints to their owning shards before any
	// worker starts, so the tables are shard-goroutine-only afterwards.
	for u, cp := range restore {
		g.shards[shardOf(u, len(g.shards))].restore[u] = cp
	}
	for _, s := range g.shards {
		g.wg.Add(1)
		go g.run(s)
	}
	g.registerMetrics()
	go g.watch()
	return g, nil
}

// journalQueueDepth bounds the write-behind journal queue: enough to ride
// out an fsync without stalling flushes, small enough that backpressure
// kicks in before a dead disk hides megabytes of unjournaled windows.
const journalQueueDepth = 256

// Journal request kinds.
const (
	jreqCheckpoint byte = iota
	jreqDeploy
	jreqBarrier
)

// journalReq is one unit of work for the journal pump. done, when
// non-nil, receives the result of the group commit that covered the
// request — Swap gates on it, and barriers use it as a queue-committed
// signal.
type journalReq struct {
	kind byte
	cp   journal.Checkpoint
	dep  journal.Deployment
	done chan error
}

// journalPump is the write-behind journal goroutine, and it commits in
// groups: once a request arrives it takes every request already queued,
// up to journalQueueDepth, without blocking, and commits their records
// with one write and one fsync. Only then does it answer the group's done
// channels, so a barrier or a Swap is answered after an fsync covers
// everything queued ahead of it. FIFO order makes the on-disk record
// order identical to the enqueue order, which is what the swapMu ordering
// argument (deploy before dependent checkpoints) relies on. A failed
// commit reaches the whole group: every waiter gets the error and the
// gateway error latches.
func (g *Gateway) journalPump() {
	defer close(g.jpumpEnd)
	var batch journal.Batch
	var dones []chan error
	add := func(req journalReq) {
		switch req.kind {
		case jreqCheckpoint:
			batch.AddCheckpoint(req.cp)
		case jreqDeploy:
			batch.AddDeploy(req.dep)
		}
		if req.done != nil {
			dones = append(dones, req.done)
		}
	}
	for req := range g.jq {
		add(req)
	drain:
		for n := 1; n < journalQueueDepth; n++ {
			select {
			case req, ok := <-g.jq:
				if !ok {
					break drain
				}
				add(req)
			default:
				break drain
			}
		}
		err := g.jw.Commit(&batch)
		if err != nil {
			g.setErr(err)
		}
		for _, done := range dones {
			done <- err
		}
		batch.Reset()
		clear(dones)
		dones = dones[:0]
	}
}

// JournalBarrier waits until every journal append enqueued so far has
// been committed — folded into the writer's state and fsynced — so the
// folded state covers everything the gateway has emitted. The server's
// resume/replay handlers call it before reading per-user state: without
// the barrier, a window emitted moments ago could be missing from both
// the client's delivery and the folded replay ring. No-op without a
// journal or after Close (a drained, closed journal is trivially
// current).
func (g *Gateway) JournalBarrier() error {
	done := g.enqueueBarrier()
	if done == nil {
		return nil
	}
	return <-done
}

// enqueueBarrier places a barrier request on the journal queue, holding
// swapMu only for the enqueue (the wait happens in JournalBarrier, after
// the lock is gone). A nil return means there is nothing to wait for:
// the gateway is journal-less, or the queue already drained and closed.
func (g *Gateway) enqueueBarrier() chan error {
	if g.jw == nil {
		return nil
	}
	g.swapMu.Lock()
	defer g.swapMu.Unlock()
	if g.jqClosed {
		return nil
	}
	done := make(chan error, 1)
	g.jq <- journalReq{kind: jreqBarrier, done: done} //lppm:allow sendlock -- swapMu excludes Close's channel-close during the send; the pump drains jq unconditionally and never takes swapMu, so the send completes in bounded time
	return done
}

// Journal returns the gateway's stream journal writer, or nil when the
// gateway does not journal. The server's resume/replay endpoints read
// per-user state through it (behind JournalBarrier).
func (g *Gateway) Journal() *journal.Writer { return g.jw }

// Obs returns the gateway's metric registry — the one registry of the
// serving stack; downstream components (controller, HTTP server, admin
// plane) register into and expose this.
func (g *Gateway) Obs() *obs.Registry { return g.reg }

// Tracer returns the gateway's span tracer, or nil when tracing is off
// — the HTTP server continues window traces through it and the admin
// plane mounts its /trace and /debug/flight exports.
func (g *Gateway) Tracer() *tracing.Tracer { return g.tracer }

// registerMetrics exposes the counters the gateway already keeps. All
// series are Func-backed reads of the existing atomics, so registration
// adds zero hot-path cost and the exposed values cannot drift from Stats.
func (g *Gateway) registerMetrics() {
	for i, s := range g.shards {
		l := obs.Labels{"shard": strconv.Itoa(i)}
		g.reg.CounterFunc("lppm_shard_ingested_total",
			"records accepted into the shard stage", l, s.ingested.Load)
		g.reg.CounterFunc("lppm_shard_emitted_total",
			"protected records delivered to the gateway output", l, s.emitted.Load)
		g.reg.CounterFunc("lppm_shard_flushes_total",
			"windows flushed through protection", l, s.flushes.Load)
		g.reg.CounterFunc("lppm_shard_dropped_total",
			"records lost because cancellation outran delivery", l, s.dropped.Load)
		g.reg.CounterFunc("lppm_shard_reconfigs_total",
			"user streams refreshed to a newer deployment", l, s.reconfigs.Load)
		g.reg.GaugeFunc("lppm_shard_users",
			"per-user streams held by the shard", l,
			func() float64 { return float64(s.userN.Load()) })
		g.reg.GaugeFunc("lppm_shard_queue_depth",
			"shard input-queue occupancy in batches", l,
			func() float64 { return float64(len(s.in)) })
	}
	g.reg.GaugeFunc("lppm_gateway_generation",
		"serving deployment generation (0 = installed at New)", nil,
		func() float64 { return float64(g.deploy.Load().gen) })
	g.reg.CounterFunc("lppm_gateway_swaps_total",
		"successful deployment hot-swaps", nil, g.swaps.Load)
	if g.jw != nil {
		g.reg.CounterFunc("lppm_journal_appends_total",
			"checkpoint/deploy records appended to the stream journal", nil,
			func() uint64 { return g.jw.Stats().Appends })
		g.reg.CounterFunc("lppm_journal_syncs_total",
			"stream journal fsyncs; appends_total/syncs_total is the pump's achieved group size", nil,
			func() uint64 { return g.jw.Stats().Syncs })
		g.reg.CounterFunc("lppm_journal_snapshots_total",
			"snapshot frames written (startup install + rotations)", nil,
			func() uint64 { return g.jw.Stats().Snapshots })
		g.reg.CounterFunc("lppm_journal_bytes_total",
			"journal bytes written, framing included", nil,
			func() uint64 { return g.jw.Stats().Bytes })
		g.reg.CounterFunc("lppm_journal_errors_total",
			"journal append/sync/remove failures", nil,
			func() uint64 { return g.jw.Stats().Errors })
		g.reg.GaugeFunc("lppm_journal_segment",
			"current journal segment index", nil,
			func() float64 { return float64(g.jw.Stats().Segment) })
		g.reg.GaugeFunc("lppm_journal_queue_depth",
			"write-behind journal queue occupancy in pending appends", nil,
			func() float64 { return float64(len(g.jq)) })
	}
}

// obsSampleEvery is the stage clock's deterministic sampling period: one
// in every obsSampleEvery batches (and, independently, window flushes)
// carries wall-clock stamps; the rest skip every clock read. A 37 ns
// time.Now per stamp times two stamps per window flush was the dominant
// instrumentation cost — sampling keeps the measured overhead well under
// the 2% budget while the histograms, being statistical objects over
// exchangeable batches, lose only tail resolution. Must be a power of two
// (the gate is a mask); the first tick always samples so short tests and
// low-traffic deployments still populate every stage series.
const obsSampleEvery = 8

// takeStage removes the shard's staged batch as a queue message (caller
// holds stageMu), closing out the batch's ingest-stage measurement and
// stamping the start of its queue residency. Unsampled batches (zero
// stageStartNS) carry no stamp and stay off the clock downstream.
func (g *Gateway) takeStage(s *shard) shardMsg {
	msg := shardMsg{batch: s.stage}
	s.stage = nil
	if s.stageStartNS != 0 {
		now := obs.Stamp()
		msg.enqueuedNS = now
		// Carry the ingest-start stamp too: the tracer rebuilds the
		// batch's ingest and queue spans from the same two readings the
		// stage clock already paid for.
		msg.stagedNS = s.stageStartNS
		g.clock.Observe(obs.StageIngest, s.stageStartNS, now)
	}
	s.stageStartNS = 0
	return msg
}

// pushStage hands the shard's staged records, if any, to its worker
// (caller holds stageMu), blocking for backpressure. Sending under the
// lock keeps every send ordered before any close(s.in). When cancellation
// outruns the send, the batch is counted dropped and the context error
// returned.
func (g *Gateway) pushStage(s *shard) error {
	if len(s.stage) == 0 {
		return nil
	}
	msg := g.takeStage(s)
	select {
	case s.in <- msg:
		return nil
	case <-g.ctx.Done():
		s.dropped.Add(uint64(len(msg.batch)))
		return g.ctx.Err()
	}
}

// watch finalizes the gateway once every worker has exited: leftover staged
// or still-queued records (possible only on cancellation — a normal Close
// drain consumes the queue before the worker exits) are accounted as
// dropped, and the output closes so consumers unblock.
func (g *Gateway) watch() {
	g.wg.Wait()
	for _, s := range g.shards {
		s.stageMu.Lock()
		s.dead = true
		if n := len(s.stage); n > 0 {
			s.dropped.Add(uint64(n))
			s.stage = nil
		}
		// Sends happen only under stageMu with dead unset, so after
		// this point the queue can no longer grow; whatever the dead
		// worker left behind is lost and must be counted.
	drainQueue:
		for {
			select {
			case msg, ok := <-s.in:
				if !ok {
					break drainQueue
				}
				s.dropped.Add(uint64(len(msg.batch)))
				if msg.done != nil {
					// Unblock a FlushUser or EvictUser waiter whose
					// command the dead worker never reached.
					close(msg.done)
				}
			default:
				break drainQueue
			}
		}
		s.stageMu.Unlock()
	}
	close(g.out)
	close(g.done)
}

// shardOf routes a user to a shard: FNV-1a over the identity, mod N. Stable
// across processes and shard-local for every record of one user.
func shardOf(user string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(user)) //lppm:allow droppederr -- hash.Hash documents that Write never returns an error
	return int(h.Sum32() % uint32(n))
}

// Ingest routes one record to its user's shard, blocking when the shard
// queue is full (backpressure). Safe for concurrent use. Returns ErrClosed
// after Close, or the context error after cancellation.
func (g *Gateway) Ingest(rec trace.Record) error {
	if rec.User == "" {
		return fmt.Errorf("service: record with empty user id")
	}
	s := g.shards[shardOf(rec.User, len(g.shards))]
	s.stageMu.Lock()
	defer s.stageMu.Unlock()
	if s.dead {
		return ErrClosed
	}
	// Refuse intake as soon as the context is canceled — staging the
	// record would only have the drain count it dropped.
	if err := g.ctx.Err(); err != nil {
		return err
	}
	if s.stage == nil {
		s.stage = make([]trace.Record, 0, g.cfg.StageSize)
	}
	if len(s.stage) == 0 && (g.clock != nil || g.tracer != nil) {
		s.stageTick++
		if s.stageTick&(obsSampleEvery-1) == 1 {
			s.stageStartNS = obs.Stamp()
		}
	}
	s.stage = append(s.stage, rec)
	s.ingested.Add(1)
	if len(s.stage) < g.cfg.StageSize {
		if s.idle {
			s.idle = false
			select {
			case s.wake <- struct{}{}:
			default: // a wake-up is already pending
			}
		}
		return nil
	}
	// Full stage: hand the batch to the worker. The stage lock stays
	// held — competing producers would only block on the same full queue
	// anyway.
	return g.pushStage(s)
}

// FlushUser forces the user's pending window through protection now rather
// than at the next FlushEvery boundary or drain — the hook a network
// front-end uses when a connection finishes sending so the client receives
// its tail records before the gateway shuts down. The command travels the
// user's shard queue behind every record already ingested, so it flushes
// exactly the records the caller has pushed; it returns once the flush has
// been processed and the window (if any) handed to Output. An empty pending
// window is a no-op. Forcing a flush mid-stream changes the user's window
// split, so callers relying on the stream ≡ batch bit-identity must flush
// only at points the comparison run also flushes (end of stream).
func (g *Gateway) FlushUser(user string) error {
	return g.command(user, shardMsg{op: opFlush}, true)
}

// EvictUser checkpoints a user's stream — pending records included, the
// window split untouched — and releases its memory; the user's next
// record rebuilds the stream from the checkpoint, bit-identically. With
// a journal attached the checkpoint is also journaled, durable once the
// pump's next fsync covers it; without one it is held only in memory.
// The command rides the shard queue behind every record
// already ingested, like FlushUser, and returns once processed. Evicting
// an unknown user is a no-op.
func (g *Gateway) EvictUser(user string) error {
	return g.command(user, shardMsg{op: opEvict}, true)
}

// SetUserTrace binds a remote, client-originated trace context to a
// user's stream: every window flushed for that user from then on is
// recorded as a child of the remote span — how a traceparent that
// arrived on an HTTP stream shows up in GET /trace with the gateway's
// window/journal/dispatch/write spans under it. Like FlushUser, the
// command pushes the shard's stage and rides the queue behind it, so it
// orders behind every record already ingested, staged ones included: a
// window those records complete flushes before the binding applies. It
// does not wait to be processed. The binding persists until replaced —
// a zero context unbinds. No-op without a tracer.
func (g *Gateway) SetUserTrace(user string, sc tracing.SpanContext) error {
	if g.tracer == nil {
		return nil
	}
	return g.command(user, shardMsg{op: opTrace, traceCtx: sc}, false)
}

// command sends a control message for user down its shard's queue,
// behind every record already ingested: the stage is pushed first, and
// both sends stay under stageMu, so the command cannot overtake staged
// records and is ordered before any close(s.in). With wait it returns
// once the worker has processed the command — or, when the worker exits
// first, once watch has accounted for the queue.
func (g *Gateway) command(user string, msg shardMsg, wait bool) error {
	if user == "" {
		return fmt.Errorf("service: %s for empty user id", opVerbs[msg.op])
	}
	s := g.shards[shardOf(user, len(g.shards))]
	msg.user = user
	if wait {
		msg.done = make(chan struct{})
	}
	// The staged section runs under stageMu with a deferred unlock; the
	// wait on done must happen after release (the worker needs producers
	// to make progress), so it lives outside the closure.
	err := func() error {
		s.stageMu.Lock()
		defer s.stageMu.Unlock()
		if s.dead {
			return ErrClosed
		}
		if err := g.ctx.Err(); err != nil {
			return err
		}
		if err := g.pushStage(s); err != nil {
			return err
		}
		select {
		case s.in <- msg:
			return nil
		case <-g.ctx.Done():
			return g.ctx.Err()
		}
	}()
	if err != nil {
		return err
	}
	if wait {
		<-msg.done
	}
	return nil
}

// IngestAll feeds a slice of records in order, stopping at the first error.
func (g *Gateway) IngestAll(recs []trace.Record) error {
	for _, rec := range recs {
		if err := g.Ingest(rec); err != nil {
			return err
		}
	}
	return nil
}

// Window is one flushed window on the gateway output: the protected
// records of a single user, in time order, plus the span context of
// the window's trace — zero when tracing is off or this flush was not
// in the trace sample — so downstream hops (the server's dispatcher
// and response writer) attach their spans to the same tree.
type Window struct {
	Records []trace.Record
	Span    tracing.SpanContext
}

// Output returns the protected stream. Each element is one flushed window
// of a single user. Windows of one user arrive in stream order; windows of
// different users interleave freely. The channel closes once every shard
// has drained (after Close or cancellation); consumers must read until
// then.
func (g *Gateway) Output() <-chan Window { return g.out }

// Swap hot-swaps the serving deployment — mechanism, parameters and
// per-user override table — without restart or record loss. The swap is
// atomic for the gateway and becomes visible to each user's stream lazily
// at its next window boundary: every emitted window is protected under
// exactly one deployment, windows already flushed are untouched, and
// pending records simply flush under the new parameters when their window
// completes. Per-user random sources continue uninterrupted, so output
// emitted before the swap is bit-identical to a never-swapped run. Safe to
// call concurrently with Ingest and from any goroutine. Partial overrides
// are merged over the deployment's Params and validated; an invalid
// deployment is rejected with the old one left serving.
func (g *Gateway) Swap(d *core.Deployment) error {
	if d == nil || d.Mechanism == nil {
		return fmt.Errorf("service: swap with nil deployment or mechanism")
	}
	params := d.Params.Clone()
	if len(params) == 0 {
		params = lppm.Defaults(d.Mechanism)
	}
	if err := lppm.ValidateAssignment(d.Mechanism, params); err != nil {
		return err
	}
	var overrides map[string]lppm.Params
	if len(d.Overrides) > 0 {
		var err error
		if overrides, err = mergeOverrides(d.Mechanism, params, d.Overrides); err != nil {
			return err
		}
	}
	g.swapMu.Lock()
	defer g.swapMu.Unlock()
	cur := g.deploy.Load()
	next := &deployState{
		gen:       cur.gen + 1,
		mech:      d.Mechanism,
		params:    params,
		overrides: overrides,
	}
	// The deploy record must precede any gen-G checkpoint in the journal,
	// or recovery could fold a checkpoint from a journal that never heard
	// of generation G — enqueueing under swapMu before the deployment
	// becomes loadable guarantees that via the queue's FIFO order. Unlike
	// window checkpoints, the swap waits for the append result: a journal
	// that cannot persist the record rejects the swap, and the old
	// deployment keeps serving and keeps matching the journal.
	if g.jq != nil {
		if g.jqClosed {
			g.tracer.Flight().Snapshot("swap rejected: journal closed")
			return fmt.Errorf("service: swap rejected: %w", journal.ErrClosed)
		}
		done := make(chan error, 1)
		g.jq <- journalReq{kind: jreqDeploy, dep: journalDeployment(next), done: done} //lppm:allow sendlock -- the deploy record must enter the queue under swapMu to order ahead of gen-G checkpoints; the pump drains jq unconditionally and never takes swapMu, so the send completes in bounded time
		if err := <-done; err != nil {
			g.tracer.Flight().Snapshot("swap rejected: journal append failed: " + err.Error())
			return fmt.Errorf("service: swap rejected, journal append failed: %w", err)
		}
	}
	g.deploy.Store(next)
	g.swaps.Add(1)
	return nil
}

// journalDeployment renders a deployState as its journal record.
func journalDeployment(d *deployState) journal.Deployment {
	jd := journal.Deployment{
		Generation: d.gen,
		Mechanism:  d.mech.Name(),
		Params:     map[string]float64(d.params),
	}
	if len(d.overrides) > 0 {
		jd.Overrides = make(map[string]map[string]float64, len(d.overrides))
		for u, p := range d.overrides {
			jd.Overrides[u] = map[string]float64(p)
		}
	}
	return jd
}

// Generation returns the serving deployment's generation: 0 until the
// first Swap, then incremented by each successful one.
func (g *Gateway) Generation() uint64 { return g.deploy.Load().gen }

// DeploymentInfo is a wire-friendly snapshot of the serving deployment —
// what GET /v1/deployment reports.
type DeploymentInfo struct {
	// Generation identifies the deployment (0 = the one New installed).
	Generation uint64 `json:"generation"`
	// Mechanism is the serving mechanism's registered name.
	Mechanism string `json:"mechanism"`
	// Params is the full base parameter assignment.
	Params lppm.Params `json:"params"`
	// Overrides is the per-user override table, complete assignments per
	// user; omitted when empty.
	Overrides map[string]lppm.Params `json:"overrides,omitempty"`
}

// Deployment snapshots the serving deployment's identity and assignment.
// The returned maps are clones; mutating them does not affect serving.
func (g *Gateway) Deployment() DeploymentInfo {
	d := g.deploy.Load()
	info := DeploymentInfo{
		Generation: d.gen,
		Mechanism:  d.mech.Name(),
		Params:     d.params.Clone(),
	}
	if len(d.overrides) > 0 {
		info.Overrides = make(map[string]lppm.Params, len(d.overrides))
		for u, p := range d.overrides {
			info.Overrides[u] = p.Clone()
		}
	}
	return info
}

// ServingDeployment rebuilds the serving deployment as a core.Deployment —
// the handle a unary batch endpoint protects with, and the base a manual
// reconfiguration merges new values over. Params and overrides are cloned;
// the mechanism is shared (mechanisms are stateless).
func (g *Gateway) ServingDeployment() *core.Deployment {
	d := g.deploy.Load()
	dep := &core.Deployment{Mechanism: d.mech, Params: d.params.Clone()}
	if len(d.overrides) > 0 {
		dep.Overrides = make(map[string]lppm.Params, len(d.overrides))
		for u, p := range d.overrides {
			dep.Overrides[u] = p.Clone()
		}
	}
	return dep
}

// SetTap installs (or, with nil, removes) the window-sampling tap. Safe to
// call at any time; windows flushed after the call see the new tap.
func (g *Gateway) SetTap(t Tap) {
	if t == nil {
		g.tap.Store(nil)
		return
	}
	g.tap.Store(&tapHolder{t: t})
}

// Close stops intake, drains the shards (staged and queued records are
// still protected and emitted), closes Output once the drain finishes, and
// returns the first mechanism error encountered, if any. Callers must stop
// Ingest-ing before Close and keep consuming Output until it closes.
// Idempotent.
func (g *Gateway) Close() error {
	g.closeOnce.Do(func() {
		for _, s := range g.shards {
			s.stageMu.Lock()
			if !s.dead {
				_ = g.pushStage(s) //lppm:allow droppederr -- a canceled push has already counted the stage dropped, and Close reports mechanism errors, not the cancellation
				s.dead = true
				close(s.in)
			}
			s.stageMu.Unlock()
		}
	})
	// Wait for watch(), not just the workers: the leftover-record
	// accounting runs there, and returning earlier would let a
	// Close-then-Stats caller observe Ingested > Emitted+Dropped.
	<-g.done
	// Every drain flush has enqueued its checkpoint by now; close the
	// queue, wait for the pump to drain it, then close the journal — so
	// it closes after the last tail window, the drain → journal-close
	// ordering the server's shutdown path relies on. jqClosed is guarded
	// by swapMu so a concurrent Swap or JournalBarrier never sends on the
	// closed channel; Close stays idempotent.
	if g.jw != nil {
		g.swapMu.Lock()
		if !g.jqClosed {
			g.jqClosed = true
			close(g.jq)
		}
		g.swapMu.Unlock()
		<-g.jpumpEnd
		if err := g.jw.Close(); err != nil {
			g.setErr(err)
		}
	}
	g.errMu.Lock()
	defer g.errMu.Unlock()
	return g.err
}

// Stats snapshots the gateway's counters.
func (g *Gateway) Stats() Stats {
	st := Stats{
		Swaps:      g.swaps.Load(),
		Generation: g.deploy.Load().gen,
		PerShard:   make([]ShardStats, len(g.shards)),
	}
	for i, s := range g.shards {
		ss := ShardStats{
			Ingested:  s.ingested.Load(),
			Emitted:   s.emitted.Load(),
			Flushes:   s.flushes.Load(),
			Dropped:   s.dropped.Load(),
			Reconfigs: s.reconfigs.Load(),
			Users:     int(s.userN.Load()),
			QueueLen:  len(s.in),
		}
		st.PerShard[i] = ss
		st.Ingested += ss.Ingested
		st.Emitted += ss.Emitted
		st.Flushes += ss.Flushes
		st.Dropped += ss.Dropped
		st.Reconfigs += ss.Reconfigs
		st.Users += ss.Users
	}
	return st
}

// setErr records the first error.
func (g *Gateway) setErr(err error) {
	g.errMu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.errMu.Unlock()
}

// run is the shard worker loop: consume queued batches, window per user,
// flush full windows. When the queue is empty it takes the partial stage
// (pollStage), and when that is empty too it parks until a producer queues
// or stages something. On cancellation it drains whatever is already queued
// (bounded by QueueSize) and flushes every user's remainder; on channel
// close (Close) it does the same after the queue empties.
func (g *Gateway) run(s *shard) {
	defer g.wg.Done()
	for {
		var msg shardMsg
		ok := true
		select {
		case msg, ok = <-s.in:
		case <-g.ctx.Done():
			for {
				select {
				case msg, ok := <-s.in:
					if !ok {
						g.drain(s)
						return
					}
					g.handleMsg(s, msg)
				default:
					g.drain(s)
					return
				}
			}
		default:
			// A wake-up, cancellation or a poll to retry leaves msg zero,
			// which handleMsg ignores; the next pass sees what changed.
			var park bool
			if msg, park = g.pollStage(s); park {
				select {
				case msg, ok = <-s.in:
				case <-s.wake:
				case <-g.ctx.Done():
				}
			}
		}
		if !ok {
			g.drain(s)
			return
		}
		g.handleMsg(s, msg)
		if msg.batch != nil {
			s.spare = msg.batch
		}
	}
}

// pollStage is the worker's step when its queue is empty: it takes the
// partial stage, or, with nothing staged, marks the shard idle and reports
// that the worker may park. The worker never blocks on stageMu, because a
// producer waiting on this shard's full queue holds it: when the lock is
// taken the worker yields and returns to its queue. Queued messages are
// older than anything staged (producers send under stageMu), so a queue
// that refilled since the worker looked is served first.
func (g *Gateway) pollStage(s *shard) (msg shardMsg, park bool) {
	if !s.stageMu.TryLock() {
		runtime.Gosched()
		return shardMsg{}, false
	}
	defer s.stageMu.Unlock()
	switch {
	case len(s.in) > 0:
	case len(s.stage) > 0:
		msg = g.takeStage(s)
		s.stage, s.spare = s.spare[:0], nil
	default:
		s.idle = true
		park = true
	}
	return msg, park
}

// handleMsg windows each record of a queued batch and executes any control
// command, acknowledging it.
func (g *Gateway) handleMsg(s *shard, msg shardMsg) {
	if msg.enqueuedNS != 0 {
		dequeued := obs.Stamp()
		g.clock.Observe(obs.StageQueue, msg.enqueuedNS, dequeued)
		if g.tracer != nil {
			// A sampled batch gets its span tree from the three stamps
			// the stage clock already read: staged → enqueued → dequeued.
			// ForceRoot, not Root — the 1-in-obsSampleEvery tick mask is
			// the sampling decision here. Windows flushed while this
			// batch is being handled parent under it (s.batch).
			root := g.tracer.ForceRootAt("batch", msg.stagedNS)
			sc := root.Context()
			g.tracer.ChildAt(sc, "ingest", msg.stagedNS).EndAt(msg.enqueuedNS)
			g.tracer.ChildAt(sc, "queue", msg.enqueuedNS).EndAt(dequeued)
			root.AttrInt("records", int64(len(msg.batch))).EndAt(dequeued)
			s.batch = sc
		}
	} else if g.tracer != nil {
		s.batch = tracing.SpanContext{}
	}
	for _, rec := range msg.batch {
		g.handle(s, rec)
	}
	switch msg.op {
	case opTrace:
		if u := s.users[msg.user]; u != nil {
			u.remote = msg.traceCtx
		} else {
			s.remote[msg.user] = msg.traceCtx
		}
	case opFlush:
		if u := s.users[msg.user]; u != nil {
			g.flush(s, u)
		}
	case opEvict:
		g.evict(s, msg.user)
	}
	if msg.done != nil {
		close(msg.done)
	}
}

// handle buffers one record on its user's stream and flushes a full window.
func (g *Gateway) handle(s *shard, rec trace.Record) {
	u := s.users[rec.User]
	if u == nil {
		// Per-user randomness is derived by name from the root seed,
		// matching lppm.ProtectDataset: a user's protected stream is
		// identical whatever the shard count — and, for mechanisms
		// that draw randomness strictly per record, identical to the
		// batch result. Parameters come from the serving deployment,
		// override table included. A checkpointed user (recovered from
		// the journal or parked by EvictUser) restores instead: same
		// named source, re-seeked to the checkpointed draw position,
		// pending window re-buffered — bit-identical to the stream the
		// checkpoint described.
		dep := g.deploy.Load()
		src := g.root.Named(rec.User)
		var us *lppm.UserStream
		var err error
		if cp, ok := s.restore[rec.User]; ok {
			us, err = lppm.RestoreUserStream(dep.mech, dep.paramsFor(rec.User), rec.User, src, cp.RNGPos, cp.Pending)
			if err == nil {
				delete(s.restore, rec.User)
				u = &userState{us: us, gen: dep.gen, in: cp.In, out: cp.Out, windows: cp.Windows}
			}
		} else {
			us, err = lppm.NewUserStream(dep.mech, dep.paramsFor(rec.User), rec.User, src)
			if err == nil {
				u = &userState{us: us, gen: dep.gen}
			}
		}
		if err != nil {
			g.setErr(err)
			s.dropped.Add(1)
			return
		}
		if sc, ok := s.remote[rec.User]; ok {
			// A SetUserTrace binding that arrived before the user's
			// first record.
			u.remote = sc
			delete(s.remote, rec.User)
		}
		s.users[rec.User] = u
		s.userN.Add(1)
	}
	if err := u.us.Push(rec); err != nil {
		g.setErr(err)
		s.dropped.Add(1)
		return
	}
	u.in++
	if u.us.Pending() >= g.cfg.FlushEvery {
		g.flush(s, u)
	}
}

// evict checkpoints one user's stream — pending window included,
// unflushed, so the window split (and with it the bit-identity
// equivalence) is preserved — parks the checkpoint in the restore table
// and drops the stream. Journaled when a journal is attached; purely
// in-memory otherwise. A user with no stream is a no-op.
func (g *Gateway) evict(s *shard, user string) {
	u := s.users[user]
	if u == nil {
		return
	}
	cp := journal.Checkpoint{
		User:       user,
		Generation: u.gen,
		RNGPos:     u.us.Pos(),
		In:         u.in,
		Out:        u.out,
		Windows:    u.windows,
		Pending:    append([]trace.Record(nil), u.us.PendingRecords()...),
	}
	if g.jq != nil {
		// Write-behind like flush; an append error latches via the pump,
		// and the in-memory restore entry stays exact regardless.
		g.jq <- journalReq{kind: jreqCheckpoint, cp: cp}
	}
	s.restore[user] = cp
	delete(s.users, user)
	s.userN.Add(-1)
}

// flush protects one user's window and emits it. The window boundary is
// where a hot-swapped deployment becomes visible: the stream refreshes to
// the current deployment before protecting, so the whole window — and every
// later one until the next swap — is protected under exactly one parameter
// set, and no record is ever dropped or re-protected by a swap.
func (g *Gateway) flush(s *shard, u *userState) {
	us := u.us
	n := us.Pending()
	if n == 0 {
		return
	}
	// Sampled like the ingest/queue stages: most flushes skip both clock
	// reads, one in obsSampleEvery measures window-flush → emission.
	var flushStart int64
	if g.clock != nil || g.tracer != nil {
		s.flushTick++
		if s.flushTick&(obsSampleEvery-1) == 1 {
			flushStart = obs.Stamp()
		}
	}
	// The window span reuses the flush stamps. Parent priority: a
	// client-originated trace bound by SetUserTrace wins (and, being an
	// explicit opt-in, is recorded on every flush — paying its own
	// clock read when this flush isn't in the sample); otherwise a
	// sampled flush parents under the sampled batch that triggered it,
	// or stands alone as a root.
	var wspan *tracing.Span
	if g.tracer != nil {
		switch {
		case u.remote.Sampled():
			start := flushStart
			if start == 0 {
				start = obs.Stamp()
			}
			wspan = g.tracer.ChildAt(u.remote, "window", start)
		case flushStart != 0 && s.batch.Sampled():
			wspan = g.tracer.ChildAt(s.batch, "window", flushStart)
		case flushStart != 0:
			wspan = g.tracer.ForceRootAt("window", flushStart)
		}
		wspan.Attr("user", us.User()).AttrInt("records", int64(n))
	}
	if dep := g.deploy.Load(); dep.gen != u.gen {
		if err := us.Reconfigure(dep.mech, dep.paramsFor(us.User())); err != nil {
			// Reject the refresh but keep serving the old, valid
			// parameters; Swap validates, so this is defensive.
			g.setErr(err)
		} else {
			u.gen = dep.gen
			s.reconfigs.Add(1)
		}
	}
	// The tap samples before protection so it can copy the actual window
	// (Flush reuses the buffer) and pair it with the protected output.
	// The per-user handle is cached on the stream, so the steady-state
	// cost is one atomic load and a pointer compare.
	var tp TapUser
	var actual []trace.Record
	if h := g.tap.Load(); h != nil {
		if u.tapSrc != h {
			u.tapSrc, u.tap = h, h.t.User(us.User())
		}
		if u.tap != nil && u.tap.Sample(n) {
			tp = u.tap
			actual = append(make([]trace.Record, 0, n), us.PendingRecords()...)
		}
	}
	recs, err := us.Flush()
	if err != nil {
		g.setErr(err)
		// Flush retains its buffer (and rewinds the stream's source) on
		// error; discard so the window is counted dropped exactly once
		// rather than again per retry.
		s.dropped.Add(uint64(us.Discard()))
		wspan.EndErr(err)
		return
	}
	wspan.AttrUint("generation", u.gen)
	s.flushes.Add(1)
	u.windows++
	u.out += uint64(len(recs))
	// Write-behind: the checkpoint (with this window's protected records)
	// is enqueued for the journal pump and the window is emitted without
	// waiting for the disk. Crash safety survives the reordering because
	// clients only trim their send buffers to the journal's durable In
	// and re-protection of a resend is deterministic — a window the
	// journal never saw is regenerated bit-identically from the client's
	// buffer. The bounded queue turns a stalled disk into flush
	// backpressure; append errors latch via the pump.
	if g.jq != nil {
		cp := journal.Checkpoint{
			User:       us.User(),
			Generation: u.gen,
			RNGPos:     us.Pos(),
			In:         u.in,
			Out:        u.out,
			Windows:    u.windows,
			Window:     recs,
		}
		var jStart int64
		if (g.jhist != nil && flushStart != 0) || wspan != nil {
			jStart = obs.Stamp()
		}
		g.jq <- journalReq{kind: jreqCheckpoint, cp: cp}
		if jStart != 0 {
			jEnd := obs.Stamp()
			if g.jhist != nil && flushStart != 0 {
				g.jhist.Observe(jEnd - jStart)
			}
			g.tracer.ChildAt(wspan.Context(), "journal.append", jStart).EndAt(jEnd)
		}
	}
	if tp != nil {
		tp.Observe(u.gen, actual, recs)
	}
	win := Window{Records: recs, Span: wspan.Context()}
	select {
	case g.out <- win:
	case <-g.ctx.Done():
		// Canceled: the consumer may be gone, and losing the window
		// beats deadlocking the drain — but give a live consumer a
		// grace period so cancellation with a draining reader loses
		// nothing. The deadline is gateway-wide, not per window, so an
		// absent consumer costs the whole drain one grace period rather
		// than one per user.
		g.graceOnce.Do(func() { g.graceUntil = time.Now().Add(drainGrace) })
		timer := time.NewTimer(time.Until(g.graceUntil))
		defer timer.Stop()
		select {
		case g.out <- win:
		case <-timer.C:
			s.dropped.Add(uint64(len(recs)))
			wspan.EndErr(errWindowDropped)
			return
		}
	}
	s.emitted.Add(uint64(len(recs)))
	if flushStart != 0 || wspan != nil {
		end := obs.Stamp()
		g.clock.Observe(obs.StageFlush, flushStart, end)
		wspan.EndAt(end)
	}
}

// errWindowDropped marks a window span whose delivery lost the race
// with cancellation.
var errWindowDropped = errors.New("window dropped: output consumer gone")

// drain flushes every user's remaining window, in sorted user order so the
// shutdown flush sequence is deterministic across runs (§3: identical seeds
// must give identical output, and Go map iteration order would not).
// Per-user record order is preserved as always.
func (g *Gateway) drain(s *shard) {
	users := make([]string, 0, len(s.users))
	for u := range s.users {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		g.flush(s, s.users[u])
	}
}
