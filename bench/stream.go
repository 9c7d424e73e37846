package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/server/client"
)

const (
	// conns is the number of client connections, one per core of the
	// reference host, all driven from this one process.
	conns = 2
	// windowSize is lppm-serve's -flush: records per protected window.
	windowSize = 32
	// chunkSize is how many records one traced chunk span covers.
	chunkSize = 4096
)

// streamSpec shapes one stream workload.
type streamSpec struct {
	name    string
	drivers int           // synthetic fleet size, one stream user per driver
	baseDur time.Duration // traffic generated per driver; closed loops repeat it
	// rate is the open-loop send rate in records/s over all connections;
	// 0 makes a closed loop (see send).
	rate float64
	// journal runs the server with -journal; segments > 1 then ends the
	// measured phase's streams that many times, restarting the server on
	// the same journal in between.
	journal  bool
	segments int
	// setups is how many timed server starts setup_s is the median of.
	setups int
}

var (
	saturateSpec = streamSpec{name: "stream-saturate", drivers: 64, baseDur: 24 * time.Hour, segments: 1, setups: 11}
	sparseSpec   = streamSpec{name: "stream-sparse", drivers: 4096, rate: 20000, segments: 1, setups: 11}
	journalSpec  = streamSpec{name: "stream-journal", drivers: 512, baseDur: 6 * time.Hour, journal: true, segments: 3, setups: 7}
)

// streamInput is a generated stream workload input: the fleet, and for an
// open loop the global send schedule.
type streamInput struct {
	fleet *fleet
	sched []slot // open loop only
}

func (spec streamSpec) input(e *env) (*streamInput, error) {
	if spec.rate == 0 {
		f, err := genFleet(e.seed, spec.drivers, spec.baseDur)
		if err != nil {
			return nil, err
		}
		return &streamInput{fleet: f}, nil
	}
	// Enough simulated time that the first rate·seconds records in global
	// timestamp order exist: a driver reports about once a minute.
	need := int(spec.rate) * e.seconds
	for dur := time.Duration(need/spec.drivers+1) * time.Minute; ; dur *= 2 {
		f, err := genFleet(e.seed, spec.drivers, dur)
		if err != nil {
			return nil, err
		}
		if sched, err := f.timeOrder(need); err == nil {
			return &streamInput{fleet: f, sched: sched}, nil
		}
		if dur > 48*time.Hour {
			return nil, fmt.Errorf("cannot generate %d records from %d drivers", need, spec.drivers)
		}
	}
}

// servingDelta accumulates the server's own counters over measured phases
// (admin-plane /metrics.json scraped before and after each).
type servingDelta struct {
	stageSumNS, stageCount [obs.StageWrite + 1]float64 // by obs.Stage
	emitted, flushes       float64
	gcCycles, gcPauseNS    float64
	failedWindows          float64
}

func (d *servingDelta) add(before, after adminSnap) {
	for st := obs.StageIngest; st <= obs.StageWrite; st++ {
		l := map[string]string{"stage": st.String()}
		d.stageSumNS[st] += delta(before, after, obs.StageLatencyMetric, l, "sum")
		d.stageCount[st] += delta(before, after, obs.StageLatencyMetric, l, "count")
	}
	d.emitted += delta(before, after, "lppm_shard_emitted_total", nil, "")
	d.flushes += delta(before, after, "lppm_shard_flushes_total", nil, "")
	d.gcCycles += delta(before, after, "go_gc_cycles_total", nil, "")
	d.gcPauseNS += delta(before, after, "go_gc_pause_total_ns", nil, "")
	for _, n := range []string{"lppm_server_orphan_windows_total", "lppm_server_dropped_windows_total",
		"lppm_server_stall_abandons_total", "lppm_server_streams_rejected_total"} {
		d.failedWindows += delta(before, after, n, nil, "")
	}
}

// passOut is one pass over a stream workload.
type passOut struct {
	sent    []int        // per user: records sent
	got     []userDigest // per user: digest of records received
	wins    []emit       // window completions, every segment
	rates   []float64    // records received per second in each whole bin of the measured phase
	setupS  []float64    // timed server starts
	peakKB  int64        // max server VmHWM
	lostOps int          // records on connections that failed outright
	errs    []error

	// Observations the traced pass reports as per-layer metrics.
	rssHealthyKB       int64
	serverCPU, selfCPU float64
	serving            servingDelta
	queueMax           float64
	sendNS, lateNS     []float64
	journalDir         string
}

func (p *passOut) received() int {
	n := 0
	for _, d := range p.got {
		n += d.n
	}
	return n
}

func (p *passOut) attempted() int {
	n := 0
	for _, s := range p.sent {
		n += s
	}
	return max(n, 1)
}

// passCtx is what one pass shares across its segments and connections.
type passCtx struct {
	e      *env
	spec   streamSpec
	in     *streamInput
	traced bool
	tr     *tracing.Tracer // nil outside the traced pass
	parent tracing.SpanContext
	admin  *http.Client
	out    *passOut
}

// streamPass runs the workload once: start the server, drive every
// connection for the measured time (segment by segment), stop it.
func streamPass(ctx context.Context, e *env, spec streamSpec, in *streamInput, tr *tracing.Tracer, parent tracing.SpanContext, tag string) (*passOut, error) {
	users := len(in.fleet.users)
	p := &passCtx{
		e: e, spec: spec, in: in, traced: tr != nil, tr: tr, parent: parent,
		admin: &http.Client{Timeout: 10 * time.Second},
		out: &passOut{
			sent: make([]int, users),
			got:  make([]userDigest, users),
		},
	}
	for u, name := range in.fleet.users {
		p.out.got[u] = newUserDigest(name)
	}
	var journalDir string
	if spec.journal {
		journalDir = filepath.Join(e.tmp, spec.name+"-"+tag)
		if err := os.MkdirAll(journalDir, 0o755); err != nil {
			return nil, err
		}
		p.out.journalDir = journalDir
	}
	// setup_s is the median of spec.setups timed starts: without a
	// journal, starts before the measured phase plus the pass's own
	// server; with one, the measured phase's restarts plus restarts after
	// it, each recovering the whole journal. The traced pass times only
	// what it runs anyway.
	extra := 0
	if !p.traced {
		extra = spec.setups - 1
		if spec.journal {
			extra = spec.setups - (spec.segments - 1)
		}
	}
	if !spec.journal {
		if err := p.timeStarts(ctx, extra, ""); err != nil {
			return nil, err
		}
	}
	for seg := 0; seg < spec.segments; seg++ {
		if err := p.segment(ctx, seg, journalDir); err != nil {
			return nil, err
		}
	}
	if spec.journal {
		if err := p.timeStarts(ctx, extra, journalDir); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// timeStarts starts and stops the server n times, recording each start's
// setup time.
func (p *passCtx) timeStarts(ctx context.Context, n int, journalDir string) error {
	for i := 0; i < n; i++ {
		srv, err := startServer(ctx, p.e.server, serverArgs(journalDir))
		if err != nil {
			return err
		}
		p.out.setupS = append(p.out.setupS, srv.setup.Seconds())
		if err := srv.stop(); err != nil {
			return err
		}
	}
	return nil
}

// segment is one server lifetime: start (recovering the journal after
// the first), stream for this segment's share of the measured time, end
// every stream, stop the server.
func (p *passCtx) segment(ctx context.Context, seg int, journalDir string) (err error) {
	sp := p.tr.ChildAt(p.parent, "server.start", obs.Stamp())
	srv, err := startServer(ctx, p.e.server, serverArgs(journalDir))
	if err != nil {
		return err
	}
	sp.End()
	defer func() { err = errors.Join(err, srv.stop()) }()
	if p.spec.journal == (seg > 0) {
		p.out.setupS = append(p.out.setupS, srv.setup.Seconds())
	}
	if seg == 0 {
		if p.out.rssHealthyKB, err = procStatusKB(srv.pid(), "VmRSS"); err != nil {
			return err
		}
	}

	var before adminSnap
	stopSampler := func() {}
	if p.traced {
		if before, err = scrapeAdmin(ctx, p.admin, srv.admin); err != nil {
			return err
		}
		stopSampler = p.sampleQueue(ctx, srv.admin)
		defer stopSampler()
	}
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return err
	}
	self0, err := selfCPU()
	if err != nil {
		return err
	}

	if err := p.drive(ctx, srv.base); err != nil {
		return err
	}

	stopSampler()
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return err
	}
	self1, err := selfCPU()
	if err != nil {
		return err
	}
	p.out.serverCPU += cpu1 - cpu0
	p.out.selfCPU += self1 - self0
	if p.traced {
		after, err := scrapeAdmin(ctx, p.admin, srv.admin)
		if err != nil {
			return err
		}
		p.out.serving.add(before, after)
	}
	hwm, err := procStatusKB(srv.pid(), "VmHWM")
	if err != nil {
		return err
	}
	p.out.peakKB = max(p.out.peakKB, hwm)
	return nil
}

// sampleQueue polls the admin plane for the shards' queue depth until the
// returned (idempotent) stop function is called, keeping the maximum.
func (p *passCtx) sampleQueue(ctx context.Context, admin string) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			if snap, err := scrapeAdmin(ctx, p.admin, admin); err == nil {
				p.out.queueMax = max(p.out.queueMax, snap.sum("lppm_shard_queue_depth", nil, ""))
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// conn is one client connection's share of a segment.
type conn struct {
	users []int
	sched []slot // open loop: this connection's slots in global order
	st    *client.Stream
	match *windowMatcher
	segAt []int // per user: records sent before this segment
	// ready carries closed-loop users whose window came back; its
	// capacity is the connection's user count, and a user is in it at
	// most once. recvDone closes when the receiver returns.
	ready    chan readyUser
	recvDone chan struct{}
	start    int64  // the segment's first send
	binNS    int64  // width of a throughput bin
	perBin   []int  // records received in each bin after start
	wins     []emit // window completions
	sendNS   []float64
	lateNS   []float64
	// sendErr and recvErr are each written by one goroutine only.
	sendErr, recvErr error
}

// drive opens every connection and runs its sender and receiver until the
// segment's records are sent and every protected record is back.
func (p *passCtx) drive(ctx context.Context, base string) (err error) {
	in := p.in.fleet
	byConn := connUsers(len(in.users), conns)
	cl := client.New(base)
	cs := make([]*conn, conns)
	match := newWindowMatcher(len(in.users), windowSize)
	segAt := append([]int(nil), p.out.sent...)
	for c := range cs {
		cs[c] = &conn{users: byConn[c], match: match, segAt: segAt, recvDone: make(chan struct{})}
	}
	for _, s := range p.in.sched {
		c := s.u % conns
		cs[c].sched = append(cs[c].sched, s)
	}
	for _, c := range cs {
		if c.st, err = cl.Stream(ctx); err != nil {
			for _, o := range cs {
				if o.st != nil {
					err = errors.Join(err, o.st.Close())
				}
			}
			return fmt.Errorf("open stream: %w", err)
		}
	}
	segNS := int64(p.e.seconds) * int64(time.Second) / int64(p.spec.segments)
	// Throughput bins are a second wide, or the whole segment when it is
	// shorter.
	binNS := min(segNS, int64(time.Second))
	first := obs.Stamp()
	for _, c := range cs {
		c.start, c.binNS = first, binNS
	}
	if p.spec.rate == 0 {
		for _, c := range cs {
			c.ready = make(chan readyUser, len(c.users))
			for _, u := range c.users {
				c.ready <- readyUser{u: u, at: first}
			}
		}
	}
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(2)
		go func() {
			defer wg.Done()
			p.send(ctx, i, c, first, first+segNS)
		}()
		go func() {
			defer wg.Done()
			p.receive(i, c)
		}()
	}
	wg.Wait()
	// Only whole bins before the deadline count toward the rates; the
	// drain after it delivers tails at no steady rate.
	for k := 0; k < int(segNS/binNS); k++ {
		n := 0
		for _, c := range cs {
			if k < len(c.perBin) {
				n += c.perBin[k]
			}
		}
		p.out.rates = append(p.out.rates, float64(n)/(float64(binNS)/1e9))
	}
	for _, c := range cs {
		p.out.wins = append(p.out.wins, c.wins...)
		p.out.sendNS = append(p.out.sendNS, c.sendNS...)
		p.out.lateNS = append(p.out.lateNS, c.lateNS...)
		if err := errors.Join(c.sendErr, c.recvErr); err != nil {
			p.out.errs = append(p.out.errs, err)
			for _, u := range c.users {
				p.out.lostOps += max(p.out.sent[u]-segAt[u], 1)
			}
		}
	}
	return nil
}

// send is a connection's generator, then half-closes the stream so the
// server flushes what is pending. An open loop sends each scheduled record
// at its due time, startNS + j/rate, whatever the server's pace (a
// time.Timer waits for records not yet due). A closed loop treats each
// user as a caller waiting for its reply: the user sends one window of
// records, and its next window is due the moment the last protected record
// of the previous one arrives — so in-flight work is bounded by the user
// count, not by socket buffers — until the segment's deadline.
func (p *passCtx) send(ctx context.Context, ci int, c *conn, startNS, deadlineNS int64) {
	layer := p.tr.ChildAt(p.parent, fmt.Sprintf("client.send[%d]", ci), obs.Stamp())
	ch := chunker{t: p.tr, parent: layer.Context()}
	defer func() {
		ch.end()
		layer.End()
	}()
	fail := func(err error) {
		c.sendErr = errors.Join(c.sendErr, err, c.st.Close())
	}
	in := p.in.fleet
	var n int
	// sendOne sends user u's i-th record; a record that completes a window
	// is matched to its due time (its send time when due is negative).
	sendOne := func(u, i int, due int64) error {
		ch.tick()
		if si := i - c.segAt[u]; c.match.completes(si) {
			if due < 0 {
				due = obs.Stamp()
			}
			c.match.sent(u, si, due)
		}
		rec := in.record(u, i)
		sampled := p.traced && n%8 == 0
		var t0 int64
		if sampled {
			t0 = obs.Stamp()
		}
		if err := c.st.Send(rec); err != nil {
			return err
		}
		if sampled {
			c.sendNS = append(c.sendNS, float64(obs.Stamp()-t0))
		}
		p.out.sent[u] = i + 1
		n++
		return nil
	}
	if p.spec.rate > 0 {
		late, err := pace(ctx, c.sched, startNS, p.spec.rate, func(s slot, due int64) error {
			return sendOne(s.u, s.i, due)
		})
		c.lateNS = late
		if err != nil {
			fail(err)
			return
		}
	} else {
	loop:
		for {
			var r readyUser
			select {
			case r = <-c.ready:
			case <-c.recvDone:
				break loop // the receiver failed; its error is reported
			case <-ctx.Done():
				fail(ctx.Err())
				return
			}
			now := obs.Stamp()
			if now >= deadlineNS {
				break
			}
			c.lateNS = append(c.lateNS, float64(now-r.at))
			for k := 0; k < windowSize; k++ {
				if err := sendOne(r.u, p.out.sent[r.u], -1); err != nil {
					fail(err)
					return
				}
			}
		}
	}
	if err := c.st.CloseSend(); err != nil {
		fail(err)
	}
}

// pace is the open-loop generator: it calls send for each slot at the
// slot's due time, startNS + j/rate on the obs.Stamp clock, whatever pace
// the receiver keeps — a time.Timer waits for slots not yet due, and a
// slot already overdue goes at once — and returns how late each send
// started against its due time.
func pace(ctx context.Context, sched []slot, startNS int64, rate float64, send func(s slot, dueNS int64) error) ([]float64, error) {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	nsPerRec := float64(time.Second) / rate
	late := make([]float64, 0, len(sched))
	for _, s := range sched {
		due := startNS + int64(float64(s.j)*nsPerRec)
		if d := due - obs.Stamp(); d > 0 {
			timer.Reset(time.Duration(d))
			select {
			case <-timer.C:
			case <-ctx.Done():
				return late, ctx.Err()
			}
		}
		late = append(late, float64(obs.Stamp()-due))
		if err := send(s, due); err != nil {
			return late, err
		}
	}
	return late, nil
}

// emit is one full window's completion: when its last protected record
// arrived and its window-emit latency.
type emit struct {
	at, lat int64
}

// readyUser is a closed-loop user whose previous window came back at at.
type readyUser struct {
	u  int
	at int64
}

// receive is a connection's consumer: it digests every protected record
// per user, matches window-completing records to their due times, and
// returns once the server has delivered everything (io.EOF).
func (p *passCtx) receive(ci int, c *conn) {
	layer := p.tr.ChildAt(p.parent, fmt.Sprintf("client.recv[%d]", ci), obs.Stamp())
	ch := chunker{t: p.tr, parent: layer.Context()}
	defer func() {
		ch.end()
		layer.End()
	}()
	defer close(c.recvDone)
	idx := p.in.fleet.idx
	for {
		rec, err := c.st.Recv()
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			c.recvErr = errors.Join(err, c.st.Close())
			return
		}
		ch.tick()
		now := obs.Stamp()
		u, ok := idx[rec.User]
		if !ok {
			c.recvErr = errors.Join(fmt.Errorf("protected record of unknown user %q", rec.User), c.st.Close())
			return
		}
		p.out.got[u].add(rec)
		if k := int((now - c.start) / c.binNS); k >= 0 {
			for len(c.perBin) <= k {
				c.perBin = append(c.perBin, 0)
			}
			c.perBin[k]++
		}
		if l, ok := c.match.received(u, now); ok {
			c.wins = append(c.wins, emit{at: now, lat: l})
			if c.ready != nil {
				c.ready <- readyUser{u: u, at: now} // never blocks: capacity is the user count
			}
		}
	}
}

// chunker records one span per chunkSize records under a layer span; a
// nil tracer makes it free.
type chunker struct {
	t      *tracing.Tracer
	parent tracing.SpanContext
	part   int // the goroutine's index under the layer span
	cur    *tracing.Span
	n      int
}

func (c *chunker) tick() {
	if c.t == nil {
		return
	}
	if c.cur == nil {
		c.cur = c.t.ChildAt(c.parent, "chunk", obs.Stamp()).AttrInt("part", int64(c.part))
	}
	c.n++
	if c.n == chunkSize {
		c.end()
	}
}

func (c *chunker) end() {
	if c.cur != nil {
		c.cur.AttrInt("records", int64(c.n)).End()
	}
	c.cur, c.n = nil, 0
}

// runStream runs a stream workload: the untraced pass gives the end-to-end
// metrics; a traced run adds a traced pass and the layers alone and gives
// the per-layer metrics instead.
func runStream(ctx context.Context, e *env, spec streamSpec) (*report, error) {
	// The load generator shares the cores with the server it measures:
	// collecting its own garbage less often leaves more of them to the
	// server, which runs with Go's defaults. (The configure workload's
	// process is the system itself and keeps the defaults too.)
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	rep := &report{workload: spec.name, res: result{Correct: true, Metrics: make(map[string]metric)}}
	in, err := spec.input(e)
	if err != nil {
		return nil, err
	}
	plain, err := streamPass(ctx, e, spec, in, nil, tracing.SpanContext{}, "plain")
	if err != nil {
		return nil, err
	}
	if err := checkPass(rep, in, plain, "untraced pass"); err != nil {
		return nil, err
	}
	if !e.traced {
		streamE2E(rep, plain)
		return rep, nil
	}
	tr := tracing.New(tracing.Config{RingSize: 1 << 16})
	root := tr.ForceRoot("workload " + spec.name)
	traced, err := streamPass(ctx, e, spec, in, tr, root.Context(), "traced")
	if err != nil {
		return nil, err
	}
	if err := checkPass(rep, in, traced, "traced pass"); err != nil {
		return nil, err
	}
	ds, err := in.fleet.dataset(confUsers)
	if err != nil {
		return nil, err
	}
	lay, err := measureLayers(ctx, e, tr, root.Context(), layerInput{
		name:       spec.name,
		journal:    spec.journal,
		sample:     in.fleet.sample(in.sched, aloneRecords),
		configDS:   ds,
		recoverDir: traced.journalDir,
		seed:       e.seed,
	})
	if err != nil {
		return nil, err
	}
	root.End()
	received := float64(traced.received())
	layerReport(rep, lay, observed{
		e2eNSPerRec:        1e9 / median(plain.rates),
		overheadFrac:       1 - median(traced.rates)/median(plain.rates),
		serving:            traced.serving,
		queueMax:           traced.queueMax,
		rssKBPerUser:       float64(traced.peakKB-traced.rssHealthyKB) / float64(spec.drivers),
		serverCPUUSPerRec:  traced.serverCPU / received * 1e6,
		gcCycles:           traced.serving.gcCycles,
		gcPauseMS:          traced.serving.gcPauseNS / 1e6,
		sendNS:             traced.sendNS,
		loadgenCPUUSPerRec: traced.selfCPU / received * 1e6,
		lateNS:             traced.lateNS,
		journal:            spec.journal,
	})
	return rep, writeTrace(rep, tr, e.traceOut)
}

// checkPass verifies a pass against the batch reference and folds the
// verdict into the report.
func checkPass(rep *report, in *streamInput, p *passOut, what string) error {
	want, err := referenceDigests(in.fleet.users, p.sent, in.fleet.records, conns)
	if err != nil {
		return err
	}
	failed := verify(p.sent, p.got, want) + p.lostOps
	rep.res.Attempted += p.attempted()
	rep.res.Failed += failed
	rep.res.Correct = rep.res.Correct && failed == 0 && len(p.errs) == 0
	matched := 0
	for u := range want {
		if p.got[u] == want[u] {
			matched++
		}
	}
	rep.notef("oracle (%s): %d/%d users bit-identical to lppm.ProtectDatasetWith, digest %016x, %d records, %d stream errors",
		what, matched, len(want), combinedDigest(in.fleet.users, p.got), p.received(), len(p.errs))
	for _, err := range p.errs {
		rep.notef("stream error: %v", err)
	}
	return nil
}

// latencyGroups is how many equal-count groups of window completions the
// latency quantiles are taken over.
const latencyGroups = 5

// groupQuantile splits the window completions, in arrival order, into
// latencyGroups groups of equal count, takes the exact q-quantile of each
// group's latencies and returns the median of those — so a stall that
// hits one stretch of the run moves one group, not the result — with the
// group size.
func groupQuantile(wins []emit, q float64) (float64, int) {
	w := append([]emit(nil), wins...)
	sort.Slice(w, func(a, b int) bool { return w[a].at < w[b].at })
	groups := latencyGroups
	if len(w) < groups {
		groups = 1
	}
	n := len(w) / groups
	qs := make([]float64, 0, groups)
	for g := 0; g < groups; g++ {
		lats := make([]float64, 0, n)
		for _, e := range w[g*n : (g+1)*n] {
			lats = append(lats, float64(e.lat))
		}
		sort.Float64s(lats)
		qs = append(qs, quantile(lats, q))
	}
	return median(qs), n
}

// streamE2E reports the end-to-end metrics of an untraced pass.
func streamE2E(rep *report, p *passOut) {
	p50, n := groupQuantile(p.wins, 0.50)
	p99, _ := groupQuantile(p.wins, 0.99)
	rep.set(e2eDefs, "throughput_pts_s", median(p.rates))
	rep.set(e2eDefs, "latency_p50_ms", p50/1e6)
	rep.set(e2eDefs, "latency_p99_ms", p99/1e6)
	rep.set(e2eDefs, "setup_s", median(p.setupS))
	rep.set(e2eDefs, "peak_rss_mb", float64(p.peakKB)/1024)
	rates := sortedCopy(p.rates)
	rep.notef("throughput: median of %d per-second delivery rates, range [%.0f, %.0f] pts/s; %d records received",
		len(rates), rates[0], rates[len(rates)-1], p.received())
	rep.notef("window-emit latency: %d full windows in %d groups of %d; a group's p99 has %d samples beyond it (highest supported tail p%g)",
		len(p.wins), latencyGroups, n, beyond(n, 0.99), 100*tailPercentile(n))
	rep.notef("setup_s: median of %d server starts %v", len(p.setupS), fmtFloats("%.4f", sortedCopy(p.setupS)))
}

// fmtFloats renders xs with format, in order.
func fmtFloats(format string, xs []float64) string {
	out := make([]string, len(xs))
	for i, v := range xs {
		out[i] = fmt.Sprintf(format, v)
	}
	return fmt.Sprint(out)
}
