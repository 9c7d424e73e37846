package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/lppm"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/service"
	"repro/internal/stat"
	"repro/internal/trace"
)

const (
	// aloneRecords is how many of the workload's records each
	// layer-alone run processes.
	aloneRecords = 65536
	// aloneRepeats is how often each layer-alone run repeats; the median
	// is reported.
	aloneRepeats = 3
	// confUsers is how many of a stream workload's users the
	// configuration layers are timed on.
	confUsers = 16
)

// layerInput is what the layer-alone runs need from a workload.
type layerInput struct {
	name    string
	journal bool             // the workload's server journals
	sample  [][]trace.Record // per connection, in send order
	// configDS is the dataset the configuration layers are timed on.
	configDS *trace.Dataset
	// recoverDir is a journal directory to time service.Recover on; empty
	// uses the one the journal-alone run leaves.
	recoverDir string
	seed       int64
}

// layerOut is the layer-alone measurements, per record of the sample.
type layerOut struct {
	records                            int
	encodeNS, decodeNS                 float64
	decodeAllocs, wireBytes            float64
	streamProtectNS, batchProtectNS    float64
	gatewayNS, journalGatewayNS        float64
	journalBytes, journalAppendsPerWnd float64
	recoverS                           float64
	loopbackNS                         float64
	loop                               loopObs
	conf                               confLayers
}

// loopObs is what the in-process loopback run observes of the serving
// layers through the gateway's own registry.
type loopObs struct {
	serving  servingDelta
	queueMax float64
	sendNS   []float64
	cpuS     float64
}

// confLayers is the configuration layers timed alone.
type confLayers struct {
	users, records            int
	sweepS, itemsPerS         float64
	prepareMS                 float64
	poiNSPerRec, areaNSPerRec float64
	propertiesMS, fitMS       float64
	analyzeMS, residualMS     float64
	note                      string // a fit the data did not support
}

// gatewayConfig is the gateway lppm-serve builds from serverArgs.
func gatewayConfig(reg *obs.Registry) service.Config {
	return service.Config{
		Mechanism:  lppm.NewGeoIndistinguishability(),
		Params:     lppm.Params{lppm.EpsilonParam: geoiEpsilon},
		Shards:     conns,
		FlushEvery: windowSize,
		Seed:       serverSeed,
		Obs:        reg,
	}
}

// measureLayers runs every layer alone on the workload's inputs, each as a
// layer span with one chunk span per chunkSize records, repeated
// aloneRepeats times (median reported).
func measureLayers(ctx context.Context, e *env, tr *tracing.Tracer, parent tracing.SpanContext, in layerInput) (*layerOut, error) {
	out := &layerOut{}
	for _, part := range in.sample {
		out.records += len(part)
	}
	n := float64(out.records)
	var err error
	repeat := func(name string, fn func(layer tracing.SpanContext) (time.Duration, error)) (float64, error) {
		var xs []float64
		for i := 0; i < aloneRepeats; i++ {
			sp := tr.ChildAt(parent, name, obs.Stamp())
			d, err := fn(sp.Context())
			sp.End()
			if err != nil {
				return 0, fmt.Errorf("%s alone: %w", name, err)
			}
			xs = append(xs, float64(d.Nanoseconds())/n)
		}
		return median(xs), nil
	}

	if out.encodeNS, err = repeat("trace.encode", func(l tracing.SpanContext) (time.Duration, error) {
		d, bytes, err := encodeAlone(tr, l, in.sample)
		out.wireBytes = float64(bytes) / n
		return d, err
	}); err != nil {
		return nil, err
	}
	wire, err := encodeParts(in.sample)
	if err != nil {
		return nil, err
	}
	if out.decodeNS, err = repeat("trace.decode", func(l tracing.SpanContext) (time.Duration, error) {
		d, allocs, err := decodeAlone(tr, l, wire)
		out.decodeAllocs = float64(allocs) / n
		return d, err
	}); err != nil {
		return nil, err
	}
	shards := byShard(in.sample)
	if out.streamProtectNS, err = repeat("lppm.stream_protect", func(l tracing.SpanContext) (time.Duration, error) {
		return streamProtectAlone(tr, l, shards)
	}); err != nil {
		return nil, err
	}
	if out.batchProtectNS, err = repeat("lppm.batch_protect", func(l tracing.SpanContext) (time.Duration, error) {
		return batchProtectAlone(tr, l, shards)
	}); err != nil {
		return nil, err
	}
	if out.gatewayNS, err = repeat("service.gateway", func(l tracing.SpanContext) (time.Duration, error) {
		d, _, err := gatewayAlone(ctx, tr, l, in.sample, "")
		return d, err
	}); err != nil {
		return nil, err
	}
	var jdir string
	k := 0
	if out.journalGatewayNS, err = repeat("service.gateway+journal", func(l tracing.SpanContext) (time.Duration, error) {
		k++
		jdir = filepath.Join(e.tmp, fmt.Sprintf("%s-alone-journal-%d", in.name, k))
		d, js, err := gatewayAlone(ctx, tr, l, in.sample, jdir)
		out.journalBytes = float64(js.bytes) / n
		out.journalAppendsPerWnd = float64(js.appends) / float64(max(js.windows, 1))
		return d, err
	}); err != nil {
		return nil, err
	}
	if in.recoverDir == "" {
		in.recoverDir = jdir
	}
	sp := tr.ChildAt(parent, "journal.recover", obs.Stamp())
	t0 := time.Now()
	g, _, err := service.Recover(ctx, gatewayConfig(obs.Nop()), service.JournalConfig{Dir: in.recoverDir})
	if err != nil {
		return nil, fmt.Errorf("journal.recover: %w", err)
	}
	out.recoverS = time.Since(t0).Seconds()
	sp.End()
	if err := g.Close(); err != nil {
		return nil, err
	}
	loopDir := func() string {
		if !in.journal {
			return ""
		}
		k++
		return filepath.Join(e.tmp, fmt.Sprintf("%s-loop-journal-%d", in.name, k))
	}
	if out.loopbackNS, err = repeat("server.loopback", func(l tracing.SpanContext) (time.Duration, error) {
		d, lo, err := loopbackAlone(ctx, tr, l, in.sample, loopDir())
		out.loop = lo
		return d, err
	}); err != nil {
		return nil, err
	}
	if out.conf, err = confAlone(ctx, tr, parent, in.configDS, in.seed); err != nil {
		return nil, err
	}
	return out, nil
}

// parallel runs fn for every part concurrently and returns the wall time.
func parallel(parts int, fn func(c int) error) (time.Duration, error) {
	errs := make([]error, parts)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < parts; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = fn(c)
		}()
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

// countWriter counts bytes written and discards them.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// encodeAlone times trace.RecordWriter (JSONL) encoding each connection's
// records, one goroutine per connection.
func encodeAlone(tr *tracing.Tracer, layer tracing.SpanContext, sample [][]trace.Record) (time.Duration, int64, error) {
	counts := make([]int64, len(sample))
	d, err := parallel(len(sample), func(c int) error {
		cw := &countWriter{}
		w, err := trace.NewRecordWriter(cw, trace.FormatJSONL)
		if err != nil {
			return err
		}
		ch := chunker{t: tr, parent: layer, part: c}
		for _, rec := range sample[c] {
			ch.tick()
			if err := w.Write(rec); err != nil {
				return err
			}
		}
		ch.end()
		if err := w.Flush(); err != nil {
			return err
		}
		counts[c] = cw.n
		return nil
	})
	var total int64
	for _, n := range counts {
		total += n
	}
	return d, total, err
}

// encodeParts renders each connection's records as their wire bytes.
func encodeParts(sample [][]trace.Record) ([][]byte, error) {
	out := make([][]byte, len(sample))
	for c, part := range sample {
		var buf bytes.Buffer
		w, err := trace.NewRecordWriter(&buf, trace.FormatJSONL)
		if err != nil {
			return nil, err
		}
		for _, rec := range part {
			if err := w.Write(rec); err != nil {
				return nil, err
			}
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
		out[c] = buf.Bytes()
	}
	return out, nil
}

// decodeAlone times trace.ScanRecords over each connection's wire bytes and
// counts the heap allocations it makes.
func decodeAlone(tr *tracing.Tracer, layer tracing.SpanContext, wire [][]byte) (time.Duration, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d, err := parallel(len(wire), func(c int) error {
		ch := chunker{t: tr, parent: layer, part: c}
		err := trace.ScanRecords(bytes.NewReader(wire[c]), trace.FormatJSONL, func(trace.Record) error {
			ch.tick()
			return nil
		})
		ch.end()
		return err
	})
	runtime.ReadMemStats(&m1)
	return d, m1.Mallocs - m0.Mallocs, err
}

// byShard regroups the sample the way the gateway routes it: FNV-1a of the
// user mod the shard count, per-user order kept.
func byShard(sample [][]trace.Record) [][]trace.Record {
	out := make([][]trace.Record, conns)
	for _, part := range sample {
		for _, rec := range part {
			s := int(fnv32a(rec.User) % conns)
			out[s] = append(out[s], rec)
		}
	}
	return out
}

// fnv32a is 32-bit FNV-1a, the gateway's user → shard hash.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// streamProtectAlone times lppm.UserStream Push/Flush — the mechanism in
// its online form — one goroutine per shard, windows of windowSize.
func streamProtectAlone(tr *tracing.Tracer, layer tracing.SpanContext, shards [][]trace.Record) (time.Duration, error) {
	mech := lppm.NewGeoIndistinguishability()
	params := lppm.Params{lppm.EpsilonParam: geoiEpsilon}
	root := rng.New(serverSeed)
	srcs := make([]map[string]*rng.Source, len(shards))
	for s, part := range shards {
		srcs[s] = make(map[string]*rng.Source)
		for _, rec := range part {
			if _, ok := srcs[s][rec.User]; !ok {
				srcs[s][rec.User] = root.Named(rec.User)
			}
		}
	}
	return parallel(len(shards), func(s int) error {
		streams := make(map[string]*lppm.UserStream)
		ch := chunker{t: tr, parent: layer, part: s}
		defer ch.end()
		for _, rec := range shards[s] {
			ch.tick()
			us := streams[rec.User]
			if us == nil {
				var err error
				if us, err = lppm.NewUserStream(mech, params, rec.User, srcs[s][rec.User]); err != nil {
					return err
				}
				streams[rec.User] = us
			}
			if err := us.Push(rec); err != nil {
				return err
			}
			if us.Pending() >= windowSize {
				if _, err := us.Flush(); err != nil {
					return err
				}
			}
		}
		users := make([]string, 0, len(streams))
		for u := range streams {
			users = append(users, u)
		}
		sort.Strings(users)
		for _, u := range users {
			if _, err := streams[u].Flush(); err != nil {
				return err
			}
		}
		return nil
	})
}

// batchProtectAlone times Mechanism.Protect over each user's sample
// records as one trace, one goroutine per shard.
func batchProtectAlone(tr *tracing.Tracer, layer tracing.SpanContext, shards [][]trace.Record) (time.Duration, error) {
	mech := lppm.NewGeoIndistinguishability()
	params := lppm.Params{lppm.EpsilonParam: geoiEpsilon}
	traces := make([][]*trace.Trace, len(shards))
	for s, part := range shards {
		per := make(map[string][]trace.Record)
		var order []string
		for _, rec := range part {
			if _, ok := per[rec.User]; !ok {
				order = append(order, rec.User)
			}
			per[rec.User] = append(per[rec.User], rec)
		}
		for _, u := range order {
			t, err := trace.NewTrace(u, per[u])
			if err != nil {
				return 0, err
			}
			traces[s] = append(traces[s], t)
		}
	}
	root := rng.New(serverSeed)
	return parallel(len(shards), func(s int) error {
		sp := tr.ChildAt(layer, "chunk", obs.Stamp()).AttrInt("part", int64(s))
		defer sp.End()
		for _, t := range traces[s] {
			if _, err := mech.Protect(t, params, root.Named(t.User)); err != nil {
				return err
			}
		}
		return nil
	})
}

// journalStats is what the journal wrote during a gateway-alone run.
type journalStats struct {
	bytes, appends, windows uint64
}

// gatewayAlone times service.Gateway on the sample: one producer per
// connection ingesting, one consumer draining Output, Close to finish.
// With dir set the gateway is built by service.Recover on that fresh
// directory, so every window is journaled with the default fsync policy.
func gatewayAlone(ctx context.Context, tr *tracing.Tracer, layer tracing.SpanContext, sample [][]trace.Record, dir string) (time.Duration, journalStats, error) {
	var js journalStats
	cfg := gatewayConfig(obs.Nop())
	var g *service.Gateway
	var err error
	if dir == "" {
		g, err = service.New(ctx, cfg)
	} else {
		g, _, err = service.Recover(ctx, cfg, service.JournalConfig{Dir: dir})
	}
	if err != nil {
		return 0, js, err
	}
	total := 0
	for _, part := range sample {
		total += len(part)
	}
	consumed := make(chan int, 1)
	go func() {
		n := 0
		for w := range g.Output() {
			n += len(w.Records)
		}
		consumed <- n
	}()
	start := time.Now()
	_, ingestErr := parallel(len(sample), func(c int) error {
		ch := chunker{t: tr, parent: layer, part: c}
		defer ch.end()
		for _, rec := range sample[c] {
			ch.tick()
			if err := g.Ingest(rec); err != nil {
				return err
			}
		}
		return nil
	})
	closeErr := g.Close()
	got := <-consumed
	d := time.Since(start)
	if err := errors.Join(ingestErr, closeErr); err != nil {
		return 0, js, err
	}
	if got != total {
		return 0, js, fmt.Errorf("gateway emitted %d of %d records", got, total)
	}
	if jw := g.Journal(); jw != nil {
		st := jw.Stats()
		js = journalStats{bytes: st.Bytes, appends: st.Appends, windows: g.Stats().Flushes}
	}
	return d, js, nil
}

// gatherJSON snapshots a registry through the same JSON exposition the
// admin plane serves, so in-process and out-of-process runs parse alike.
func gatherJSON(reg *obs.Registry) (adminSnap, error) {
	var buf bytes.Buffer
	if err := obs.WriteJSON(&buf, reg.Gather()); err != nil {
		return nil, err
	}
	return parseAdmin(buf.Bytes())
}

// loopbackAlone times the serving stack in one process: gateway, HTTP
// server on a loopback listener and the public client over conns streams,
// closed loop. dir, when set, journals like the workload's server.
func loopbackAlone(ctx context.Context, tr *tracing.Tracer, layer tracing.SpanContext, sample [][]trace.Record, dir string) (d time.Duration, lo loopObs, err error) {
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	cfg := gatewayConfig(reg)
	var g *service.Gateway
	if dir == "" {
		g, err = service.New(ctx, cfg)
	} else {
		g, _, err = service.Recover(ctx, cfg, service.JournalConfig{Dir: dir})
	}
	if err != nil {
		return 0, lo, err
	}
	srv, err := server.New(server.Config{Gateway: g, MaxStreams: -1, Seed: serverSeed})
	if err != nil {
		return 0, lo, errors.Join(err, g.Close())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, lo, errors.Join(err, srv.Drain(ctx))
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer func() {
		dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		err = errors.Join(err, srv.Drain(dctx), hs.Shutdown(dctx))
	}()
	cl := client.New("http://" + ln.Addr().String())
	before, err := gatherJSON(reg)
	if err != nil {
		return 0, lo, err
	}
	streams := make([]*client.Stream, len(sample))
	for c := range streams {
		if streams[c], err = cl.Stream(ctx); err != nil {
			return 0, lo, err
		}
	}
	cpu0, err := selfCPU()
	if err != nil {
		return 0, lo, err
	}
	stopQ := make(chan struct{})
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopQ:
				return
			case <-t.C:
				q := 0
				for _, s := range g.Stats().PerShard {
					q += s.QueueLen
				}
				lo.queueMax = max(lo.queueMax, float64(q))
			}
		}
	}()
	sendNS := make([][]float64, len(sample))
	recvd := make([]int, len(sample))
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 2*len(sample))
	for c, st := range streams {
		wg.Add(2)
		go func() {
			defer wg.Done()
			ch := chunker{t: tr, parent: layer, part: c}
			defer ch.end()
			for i, rec := range sample[c] {
				ch.tick()
				t0 := obs.Stamp()
				if err := st.Send(rec); err != nil {
					errs[2*c] = errors.Join(err, st.Close())
					return
				}
				if i%8 == 0 {
					sendNS[c] = append(sendNS[c], float64(obs.Stamp()-t0))
				}
			}
			errs[2*c] = st.CloseSend()
		}()
		go func() {
			defer wg.Done()
			for {
				_, err := st.Recv()
				if errors.Is(err, io.EOF) {
					return
				}
				if err != nil {
					errs[2*c+1] = err
					return
				}
				recvd[c]++
			}
		}()
	}
	wg.Wait()
	d = time.Since(start)
	close(stopQ)
	qwg.Wait()
	cpu1, err := selfCPU()
	if err != nil {
		return 0, lo, err
	}
	lo.cpuS = cpu1 - cpu0
	if err := errors.Join(errs...); err != nil {
		return 0, lo, err
	}
	for c := range sample {
		if recvd[c] != len(sample[c]) {
			return 0, lo, fmt.Errorf("loopback stream %d returned %d of %d records", c, recvd[c], len(sample[c]))
		}
		lo.sendNS = append(lo.sendNS, sendNS[c]...)
	}
	after, err := gatherJSON(reg)
	if err != nil {
		return 0, lo, err
	}
	lo.serving.add(before, after)
	return d, lo, nil
}

// definition is the configure workload's framework step 1: GEO-I's ε,
// POI-retrieval privacy and area-coverage utility (the paper's case), a
// 25-point sweep on every core.
func definition(seed int64) core.Definition {
	return core.Definition{
		Mechanism:  lppm.NewGeoIndistinguishability(),
		Privacy:    metrics.MustPOIRetrieval(metrics.DefaultPOIRetrievalConfig()),
		Utility:    metrics.MustAreaCoverage(metrics.DefaultAreaCoverageConfig()),
		GridPoints: 25,
		Repeats:    1,
		Seed:       seed,
		Workers:    runtime.GOMAXPROCS(0),
	}
}

// confAlone times the configuration layers on ds: the eval sweep
// core.Analyze runs, metric preparation, prepared evaluation of each
// metric, dataset properties, the model fits, and Analyze itself (whose
// remainder after the parts is core.residual_ms).
func confAlone(ctx context.Context, tr *tracing.Tracer, parent tracing.SpanContext, ds *trace.Dataset, seed int64) (confLayers, error) {
	out := confLayers{users: ds.NumUsers(), records: ds.NumRecords()}
	def := definition(rng.ChildSeed(seed, "layers"))
	spec := def.Mechanism.Params()[0]
	sweep := &eval.Sweep{
		Mechanism: def.Mechanism,
		Param:     spec.Name,
		Values:    stat.LogSpace(spec.Min, spec.Max, def.GridPoints),
		Fixed:     lppm.Defaults(def.Mechanism),
		Metrics:   []metrics.Metric{def.Privacy, def.Utility},
		Repeats:   def.Repeats,
		Seed:      def.Seed,
		Workers:   def.Workers,
	}
	timed := func(name string, fn func() error) (float64, error) {
		sp := tr.ChildAt(parent, name, obs.Stamp())
		t0 := time.Now()
		err := fn()
		sp.End()
		return float64(time.Since(t0).Nanoseconds()), err
	}
	var res *eval.Result
	ns, err := timed("eval.sweep", func() (err error) {
		res, err = eval.RunCached(ctx, sweep, ds, nil)
		return err
	})
	if err != nil {
		return out, err
	}
	out.sweepS = ns / 1e9
	out.itemsPerS = float64(out.users*len(sweep.Values)*sweep.Repeats) / out.sweepS

	traces := ds.Traces()
	privs := make([]metrics.PreparedMetric, len(traces))
	utils := make([]metrics.PreparedMetric, len(traces))
	ns, err = timed("metrics.prepare", func() error {
		for i, t := range traces {
			privs[i] = metrics.Prepare(def.Privacy, t)
			utils[i] = metrics.Prepare(def.Utility, t)
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	out.prepareMS = ns / 1e6
	prot, err := lppm.ProtectDataset(ds, def.Mechanism, lppm.Params{spec.Name: geoiEpsilon}, rng.New(def.Seed))
	if err != nil {
		return out, err
	}
	evalAll := func(name string, prep []metrics.PreparedMetric) (float64, error) {
		ns, err := timed(name, func() error {
			for i, t := range traces {
				if _, err := prep[i].Evaluate(prot.Trace(t.User)); err != nil {
					return err
				}
			}
			return nil
		})
		return ns / float64(out.records), err
	}
	if out.poiNSPerRec, err = evalAll("metrics.poi_retrieval", privs); err != nil {
		return out, err
	}
	if out.areaNSPerRec, err = evalAll("metrics.area_coverage", utils); err != nil {
		return out, err
	}
	if ns, err = timed("core.properties", func() error {
		trace.DatasetProperties(ds, 500)
		return nil
	}); err != nil {
		return out, err
	}
	out.propertiesMS = ns / 1e6
	// The fits can reject a sweep whose curve never leaves its plateaus
	// (short traces); the time they take is measured either way.
	ns, err = timed("model.fit", func() error {
		var errs []error
		for _, m := range sweep.Metrics {
			xs, ys, err := res.Series(m.Name())
			if err == nil {
				_, err = model.FitLogLinear(xs, ys, 0.05)
			}
			errs = append(errs, err)
		}
		return errors.Join(errs...)
	})
	out.fitMS = ns / 1e6
	if err != nil {
		out.note = fmt.Sprintf("model.fit on %d users: %v", out.users, err)
	}
	ns, err = timed("core.analyze", func() error {
		_, err := core.Analyze(ctx, def, ds)
		return err
	})
	out.analyzeMS = ns / 1e6
	if err != nil {
		out.note = fmt.Sprintf("core.Analyze on %d users: %v", out.users, err)
	}
	out.residualMS = out.analyzeMS - out.sweepS*1e3 - out.propertiesMS - out.fitMS
	return out, nil
}

// writeTrace writes the traced run's spans as a Chrome trace_event file
// (loadable in Perfetto) and adds each span name's total and self time —
// duration minus the part its children cover — to the report's notes.
// Each layer span (a child of the workload root) gets a lane for itself
// and its descendants, plus one lane per goroutine ("part") whose chunk
// spans ran under it, so slices nest by time within every lane.
func writeTrace(rep *report, tr *tracing.Tracer, path string) error {
	spans := tr.Spans()
	byID := make(map[tracing.SpanID]*tracing.SpanData, len(spans))
	children := make(map[tracing.SpanID][]*tracing.SpanData)
	for _, s := range spans {
		byID[s.Span] = s
		children[s.Parent] = append(children[s.Parent], s)
	}
	type agg struct {
		count       int
		total, self int64
	}
	byName := make(map[string]*agg)
	var names []string
	type laneKey struct {
		layer tracing.SpanID
		part  string
	}
	lanes := make(map[laneKey]int)
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	events := make([]event, 0, len(spans))
	// layerOf is the span's ancestor directly under the workload root (the
	// root and the layer spans are their own).
	layerOf := func(s *tracing.SpanData) tracing.SpanID {
		for {
			p := byID[s.Parent]
			if p == nil || p.Parent.IsZero() {
				return s.Span
			}
			s = p
		}
	}
	for _, s := range spans {
		name := s.Name
		args := make(map[string]string, len(s.Attrs))
		for _, a := range s.Attrs {
			args[a.Key] = a.Val
		}
		key := laneKey{layer: layerOf(s)}
		if p := byID[s.Parent]; p != nil && s.Name == "chunk" {
			name = p.Name + "/chunk"
			key.part = args["part"]
		}
		a := byName[name]
		if a == nil {
			a = &agg{}
			byName[name] = a
			names = append(names, name)
		}
		a.count++
		a.total += s.EndNS - s.StartNS
		a.self += s.EndNS - s.StartNS - covered(s, children[s.Span])
		tid, ok := lanes[key]
		if !ok {
			tid = len(lanes) + 1
			lanes[key] = tid
		}
		events = append(events, event{Name: s.Name, Cat: "bench", Ph: "X",
			TS: float64(s.StartNS) / 1e3, Dur: float64(s.EndNS-s.StartNS) / 1e3, PID: 1, TID: tid, Args: args})
	}
	sort.Strings(names)
	rep.notef("spans (%d): name, count, total ms, self ms", len(spans))
	for _, n := range names {
		a := byName[n]
		rep.notef("  %-40s %6d %12.3f %12.3f", n, a.count, float64(a.total)/1e6, float64(a.self)/1e6)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err := errors.Join(werr, f.Close()); err != nil {
		return err
	}
	rep.notef("Chrome trace (Perfetto-loadable): %s", path)
	return nil
}

// covered is how much of s's interval its children cover.
func covered(s *tracing.SpanData, kids []*tracing.SpanData) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartNS, s.StartNS), min(k.EndNS, s.EndNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}
