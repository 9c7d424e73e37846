package service

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lppm"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
)

// sumSeries adds every series of the named metric across its label sets
// and counts them.
func sumSeries(samples []obs.Sample, name string) (sum float64, series int) {
	for _, s := range samples {
		if s.Name == name {
			sum += s.Value
			series++
		}
	}
	return sum, series
}

// TestObsDoesNotPerturbOutput is the determinism guarantee of §12: the
// instrumentation reads clocks and bumps atomics but feeds nothing back
// into protection, so a collecting run and a disabled run produce
// bit-identical protected output.
func TestObsDoesNotPerturbOutput(t *testing.T) {
	recs := makeRecords(10, 29)
	base := Config{
		Mechanism:  lppm.NewGeoIndistinguishability(),
		Shards:     3,
		QueueSize:  32,
		FlushEvery: 8,
		Seed:       42,
	}
	on := base
	on.Obs = obs.NewRegistry()
	off := base
	off.Obs = obs.Nop()
	gotOn, _ := runGateway(t, on, recs)
	gotOff, _ := runGateway(t, off, recs)
	if len(gotOn) != len(gotOff) {
		t.Fatalf("user count differs: on=%d off=%d", len(gotOn), len(gotOff))
	}
	for u, rsOn := range gotOn {
		rsOff := gotOff[u]
		if len(rsOn) != len(rsOff) {
			t.Fatalf("user %s: on=%d records, off=%d", u, len(rsOn), len(rsOff))
		}
		for i := range rsOn {
			if rsOn[i] != rsOff[i] {
				t.Fatalf("user %s record %d differs: on=%+v off=%+v", u, i, rsOn[i], rsOff[i])
			}
		}
	}
}

// TestTracingDoesNotPerturbOutput extends the §12 guarantee to the span
// pipeline: a fully-sampled tracing run reuses the stage clock's stamps
// and writes into its own ring, feeding nothing back into protection, so
// it emits bit-identical protected output to a run with everything off.
func TestTracingDoesNotPerturbOutput(t *testing.T) {
	recs := makeRecords(10, 29)
	base := Config{
		Mechanism:  lppm.NewGeoIndistinguishability(),
		Shards:     3,
		QueueSize:  32,
		FlushEvery: 8,
		Seed:       42,
	}
	on := base
	on.Obs = obs.NewRegistry()
	on.Tracer = tracing.New(tracing.Config{RingSize: 4096})
	off := base
	off.Obs = obs.Nop()
	gotOn, _ := runGateway(t, on, recs)
	gotOff, _ := runGateway(t, off, recs)
	if len(gotOn) != len(gotOff) {
		t.Fatalf("user count differs: on=%d off=%d", len(gotOn), len(gotOff))
	}
	for u, rsOn := range gotOn {
		rsOff := gotOff[u]
		if len(rsOn) != len(rsOff) {
			t.Fatalf("user %s: on=%d records, off=%d", u, len(rsOn), len(rsOff))
		}
		for i := range rsOn {
			if rsOn[i] != rsOff[i] {
				t.Fatalf("user %s record %d differs: on=%+v off=%+v", u, i, rsOn[i], rsOff[i])
			}
		}
	}
	// The equality must not be vacuous: the traced run recorded spans.
	var windows int
	for _, sp := range on.Tracer.Spans() {
		if sp.Name == "window" {
			windows++
		}
	}
	if windows == 0 {
		t.Fatal("traced run recorded no window spans")
	}
}

// TestSetUserTraceCorrelatesWindows binds a client-originated trace to a
// user and checks the user's window spans become children of it — the
// gateway half of end-to-end propagation.
func TestSetUserTraceCorrelatesWindows(t *testing.T) {
	tr := tracing.New(tracing.Config{})
	cfg := Config{
		Mechanism:  lppm.NewGeoIndistinguishability(),
		Shards:     2,
		FlushEvery: 4,
		Seed:       5,
		Tracer:     tr,
	}
	g, err := New(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range g.Output() {
		}
	}()
	remote := tracing.NewRootContext()
	if err := g.SetUserTrace("u00", remote); err != nil {
		t.Fatal(err)
	}
	if err := g.IngestAll(makeRecords(2, 8)); err != nil { // u00, u01
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	var bound int
	for _, sp := range tr.Spans() {
		if sp.Name != "window" {
			continue
		}
		if sp.Trace == remote.Trace {
			if sp.Parent != remote.Span {
				t.Errorf("bound window parented to %s, want remote span %s", sp.Parent, remote.Span)
			}
			bound++
		}
	}
	if bound == 0 {
		t.Fatal("no window span carries the bound trace ID")
	}
}

// TestGatewayRegistryExposesShardCounters checks that the Func-backed
// series agree with Stats — the no-drift property /v1/stats relies on.
func TestGatewayRegistryExposesShardCounters(t *testing.T) {
	recs := makeRecords(8, 20)
	cfg := Config{
		Mechanism:  lppm.NewGeoIndistinguishability(),
		Shards:     4,
		FlushEvery: 8,
		Seed:       3,
		Obs:        obs.NewRegistry(),
	}
	g, err := New(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range g.Output() {
		}
	}()
	if err := g.IngestAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	st := g.Stats()
	samples := g.Obs().Gather()
	checks := []struct {
		metric string
		want   float64
	}{
		{"lppm_shard_ingested_total", float64(st.Ingested)},
		{"lppm_shard_emitted_total", float64(st.Emitted)},
		{"lppm_shard_flushes_total", float64(st.Flushes)},
		{"lppm_shard_dropped_total", float64(st.Dropped)},
		{"lppm_shard_users", float64(st.Users)},
		{"lppm_gateway_swaps_total", float64(st.Swaps)},
		{"lppm_gateway_generation", float64(st.Generation)},
	}
	for _, c := range checks {
		if got, _ := sumSeries(samples, c.metric); got != c.want {
			t.Errorf("%s = %v, want %v (Stats)", c.metric, got, c.want)
		}
	}
	if _, got := sumSeries(samples, "lppm_shard_ingested_total"); got != cfg.Shards {
		t.Errorf("shard series = %d, want %d", got, cfg.Shards)
	}
	// The gateway-internal stages must all have recorded something.
	for _, stage := range []obs.Stage{obs.StageIngest, obs.StageQueue, obs.StageFlush} {
		h := obs.NewStageClock(g.Obs()).Hist(stage)
		if h.Count() == 0 {
			t.Errorf("stage %v recorded no observations", stage)
		}
	}
}

// TestControllerRegistersMetrics checks the controller's series land on the
// gateway's registry at construction.
func TestControllerRegistersMetrics(t *testing.T) {
	g, ctrl := newControllerPair(t, obs.NewRegistry())
	_ = ctrl
	samples := g.Obs().Gather()
	for _, m := range []string{
		"lppm_controller_windows_observed_total",
		"lppm_controller_evaluations_total",
		"lppm_controller_swaps_total",
		"lppm_controller_override_skips_total",
		"lppm_controller_users_tracked",
		"lppm_controller_last_privacy",
		"lppm_controller_last_utility",
	} {
		if _, got := sumSeries(samples, m); got != 1 {
			t.Errorf("series %s = %d, want 1", m, got)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

// newControllerPair builds a gateway+controller over the given registry with
// a minimal valid definition, draining output in the background.
func newControllerPair(t *testing.T, reg *obs.Registry) (*Gateway, *Controller) {
	t.Helper()
	mech := lppm.NewGeoIndistinguishability()
	cfg := Config{Mechanism: mech, Shards: 2, Seed: 9, Obs: reg}
	g, err := New(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range g.Output() {
		}
	}()
	dep, err := core.NewDeployment(mech, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(g, dep, ControllerConfig{
		Definition: core.Definition{
			Mechanism: mech,
			Privacy:   metrics.MustPOIRetrieval(metrics.DefaultPOIRetrievalConfig()),
			Utility:   metrics.MustAreaCoverage(metrics.DefaultAreaCoverageConfig()),
		},
		Objectives: model.Objectives{MaxPrivacy: 0.5, MinUtility: 0.5},
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, ctrl
}
