package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/lppm"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/trace"
)

const (
	// confDrivers × 24 h is the configure workload's dataset.
	confDrivers = 128
	// confLoads is how many times setup parses the dataset.
	confLoads = 3
	// confMinRequests guarantees each definition seed at least two
	// requests, so every run checks that a repeat reproduces ε.
	confMinRequests = 4
)

// confObjectives are the designer's objectives of the paper's GEO-I case.
var confObjectives = model.Objectives{MaxPrivacy: 0.10, MinUtility: 0.80}

// confPass is one pass of configuration requests.
type confPass struct {
	latNS               []float64
	work                int // records protected and scored by one request
	failed              int
	eps                 []float64
	gapNS               []float64
	cpuS                float64
	gcCycles, gcPauseNS float64
	rss0KB              int64
	hwmKB               int64
	notes               []string
}

// configureInput generates the workload's dataset and renders it in the
// wire format setup parses.
func configureInput(seed int64) ([]byte, error) {
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cfg.NumDrivers = confDrivers
	cfg.Duration = 24 * time.Hour
	f, err := synth.Generate(cfg, nil)
	if err != nil {
		return nil, err
	}
	return encodeDataset(f.Dataset)
}

// loadDataset is the configure workload's setup: parse the dataset from
// its JSONL form confLoads times (trace.ReadJSONL), timing each.
func loadDataset(raw []byte) (*trace.Dataset, []float64, error) {
	var ds *trace.Dataset
	var setups []float64
	for i := 0; i < confLoads; i++ {
		t0 := time.Now()
		d, err := trace.ReadJSONL(bytes.NewReader(raw))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		ds = d
	}
	return ds, setups, nil
}

// configurePass runs configuration requests — core.Analyze then
// Analysis.Configure — for the measured time (at least confMinRequests),
// alternating between two definition seeds derived from the workload
// seed. Its oracle: a request fails when it errors, when the chosen ε
// leaves GEO-I's range, or when a repeat of a seed does not reproduce the
// seed's first ε bit for bit.
func configurePass(ctx context.Context, e *env, ds *trace.Dataset, tr *tracing.Tracer, parent tracing.SpanContext) (*confPass, error) {
	seeds := [2]int64{rng.ChildSeed(e.seed, "definition-0"), rng.ChildSeed(e.seed, "definition-1")}
	spec := lppm.NewGeoIndistinguishability().Params()[0]
	def := definition(0)
	p := &confPass{work: ds.NumRecords() * def.GridPoints * def.Repeats}
	first := make(map[int64]uint64)
	// This process is the configurator: its peak memory counts from the
	// first request, not from input generation or an earlier workload.
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, err := selfCPU()
	if err != nil {
		return nil, err
	}
	if p.rss0KB, err = procStatusKB(0, "VmRSS"); err != nil {
		return nil, err
	}
	deadline := obs.Stamp() + int64(e.seconds)*int64(time.Second)
	var prevEnd int64
	for k := 0; k < confMinRequests || obs.Stamp() < deadline; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seed := seeds[k%2]
		t0 := obs.Stamp()
		if prevEnd != 0 {
			p.gapNS = append(p.gapNS, float64(t0-prevEnd))
		}
		req := tr.ChildAt(parent, "configure.request", t0)
		sp := tr.ChildAt(req.Context(), "core.analyze", t0)
		a, err := core.Analyze(ctx, definition(seed), ds)
		sp.End()
		var cfg model.Configuration
		if err == nil {
			sp = tr.ChildAt(req.Context(), "analysis.configure", obs.Stamp())
			cfg, err = a.Configure(confObjectives)
			sp.End()
		}
		prevEnd = obs.Stamp()
		req.End()
		p.latNS = append(p.latNS, float64(prevEnd-t0))
		p.eps = append(p.eps, cfg.Value)
		bits, seen := first[seed]
		switch {
		case err != nil:
			p.failed++
			p.notes = append(p.notes, fmt.Sprintf("request %d: %v", k, err))
		case cfg.Value < spec.Min || cfg.Value > spec.Max:
			p.failed++
			p.notes = append(p.notes, fmt.Sprintf("request %d: ε=%g outside [%g, %g]", k, cfg.Value, spec.Min, spec.Max))
		case seen && bits != math.Float64bits(cfg.Value):
			p.failed++
			p.notes = append(p.notes, fmt.Sprintf("request %d: seed %d gave ε=%g, first request gave %g", k, seed, cfg.Value, math.Float64frombits(bits)))
		case !seen:
			first[seed] = math.Float64bits(cfg.Value)
		}
	}
	cpu1, err := selfCPU()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	p.cpuS = cpu1 - cpu0
	p.gcCycles = float64(m1.NumGC - m0.NumGC)
	p.gcPauseNS = float64(m1.PauseTotalNs - m0.PauseTotalNs)
	if p.hwmKB, err = procStatusKB(0, "VmHWM"); err != nil {
		return nil, err
	}
	return p, nil
}

// checkConfigure folds a pass's oracle verdict into the report.
func checkConfigure(rep *report, p *confPass, what string) {
	rep.res.Attempted += len(p.latNS)
	rep.res.Failed += p.failed
	rep.res.Correct = rep.res.Correct && p.failed == 0
	rep.notef("oracle (%s): %d requests, %d failed; ε per request %v", what, len(p.latNS), p.failed, fmtFloats("%.6g", p.eps))
	for _, n := range p.notes {
		rep.notef("  %s", n)
	}
}

// runConfigure runs the configure workload: the paper's own use of the
// framework, in-process, bypassing every serving layer.
func runConfigure(ctx context.Context, e *env) (*report, error) {
	rep := &report{workload: "configure", res: result{Correct: true, Metrics: make(map[string]metric)}}
	raw, err := configureInput(e.seed)
	if err != nil {
		return nil, err
	}
	ds, setups, err := loadDataset(raw)
	if err != nil {
		return nil, err
	}
	plain, err := configurePass(ctx, e, ds, nil, tracing.SpanContext{})
	if err != nil {
		return nil, err
	}
	checkConfigure(rep, plain, "untraced pass")
	lat := sortedCopy(plain.latNS)
	total := 0.0
	for _, l := range lat {
		total += l
	}
	throughput := float64(plain.work*len(lat)) / (total / 1e9)
	if !e.traced {
		rep.set(e2eDefs, "throughput_pts_s", throughput)
		rep.set(e2eDefs, "latency_p50_ms", quantile(lat, 0.50)/1e6)
		rep.set(e2eDefs, "latency_p99_ms", quantile(lat, 0.99)/1e6)
		rep.set(e2eDefs, "setup_s", median(setups))
		rep.set(e2eDefs, "peak_rss_mb", float64(plain.hwmKB)/1024)
		rep.notef("dataset: %d drivers, %d records; one request protects and scores %d records (25 grid points)",
			ds.NumUsers(), ds.NumRecords(), plain.work)
		rep.notef("latency: %d requests; p99 has %d samples beyond it (the nearest-rank p99 of so few requests is the slowest one)",
			len(lat), beyond(len(lat), 0.99))
		rep.notef("setup_s: median of %d dataset parses %v", len(setups), fmtFloats("%.4f", sortedCopy(setups)))
		return rep, nil
	}
	tr := tracing.New(tracing.Config{RingSize: 1 << 16})
	root := tr.ForceRoot("workload configure")
	traced, err := configurePass(ctx, e, ds, tr, root.Context())
	if err != nil {
		return nil, err
	}
	checkConfigure(rep, traced, "traced pass")
	f := newFleet(ds)
	lay, err := measureLayers(ctx, e, tr, root.Context(), layerInput{
		name:     "configure",
		sample:   f.sample(nil, aloneRecords),
		configDS: ds,
		seed:     e.seed,
	})
	if err != nil {
		return nil, err
	}
	root.End()
	tlat := 0.0
	for _, l := range traced.latNS {
		tlat += l
	}
	tthroughput := float64(traced.work*len(traced.latNS)) / (tlat / 1e9)
	loopCPU := lay.loop.cpuS
	layerReport(rep, lay, observed{
		e2eNSPerRec:        1e9 / throughput,
		overheadFrac:       1 - tthroughput/throughput,
		serving:            lay.loop.serving,
		queueMax:           lay.loop.queueMax,
		rssKBPerUser:       float64(traced.hwmKB-traced.rss0KB) / float64(ds.NumUsers()),
		serverCPUUSPerRec:  traced.cpuS / float64(traced.work*len(traced.latNS)) * 1e6,
		gcCycles:           traced.gcCycles,
		gcPauseMS:          traced.gcPauseNS / 1e6,
		sendNS:             lay.loop.sendNS,
		loadgenCPUUSPerRec: loopCPU / float64(lay.records) * 1e6,
		lateNS:             traced.gapNS,
	})
	rep.notef("configure: the serving-layer observations (stage.*, service.records_per_window, service.queue_depth_max, server.failed_windows, client.*, loadgen.cpu_us_per_rec) come from the in-process loopback run on this dataset; server.cpu/gc and service.rss_kb_per_user from the configuration requests")
	return rep, writeTrace(rep, tr, e.traceOut)
}
