package service

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lppm"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/trace"
)

// loopFixture is the shared offline half of the controller tests: a small
// synthetic fleet truncated to exactly 2*phase records per user, analyzed
// and deployed under loose objectives (a weak, high-ε configuration with
// room to drift once the objectives tighten).
type loopFixture struct {
	ds       *trace.Dataset
	def      core.Definition
	dep      *core.Deployment
	phase1   []trace.Record // each user's first `phase` records, time-ordered
	phase2   []trace.Record // the rest, time-ordered
	nUsers   int
	phaseLen int
}

func buildLoopFixture(t *testing.T, flushEvery, windowsPerPhase int) *loopFixture {
	t.Helper()
	phase := flushEvery * windowsPerPhase
	gen := synth.DefaultConfig()
	gen.NumDrivers = 8
	gen.Duration = 8 * time.Hour
	fleet, err := synth.Generate(gen, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds := trace.NewDataset()
	for _, tr := range fleet.Dataset.Traces() {
		if tr.Len() < 2*phase {
			continue
		}
		nt, err := trace.NewTrace(tr.User, tr.Records[:2*phase])
		if err != nil {
			t.Fatal(err)
		}
		ds.Add(nt)
	}
	if ds.NumUsers() < 4 {
		t.Fatalf("synthetic fleet too sparse: %d users with >= %d records", ds.NumUsers(), 2*phase)
	}
	def := core.Definition{
		Mechanism:  lppm.NewGeoIndistinguishability(),
		Privacy:    metrics.MustPOIRetrieval(metrics.DefaultPOIRetrievalConfig()),
		Utility:    metrics.MustAreaCoverage(metrics.DefaultAreaCoverageConfig()),
		GridPoints: 9,
		Repeats:    1,
		Seed:       11,
	}
	analysis, err := core.Analyze(context.Background(), def, ds)
	if err != nil {
		t.Fatal(err)
	}
	// Loose objectives: tolerate heavy leakage, demand little utility.
	// The configured ε lands mid-range — weakly protective by design.
	dep, err := analysis.Deploy(model.Objectives{MaxPrivacy: 0.95, MinUtility: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	f := &loopFixture{ds: ds, def: def, dep: dep, nUsers: ds.NumUsers(), phaseLen: phase}
	for _, tr := range ds.Traces() {
		f.phase1 = append(f.phase1, tr.Records[:phase]...)
		f.phase2 = append(f.phase2, tr.Records[phase:]...)
	}
	byTime := func(recs []trace.Record) {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })
	}
	byTime(f.phase1)
	byTime(f.phase2)
	return f
}

// collectGateway runs a consumer that groups output per user.
func collectGateway(g *Gateway) chan map[string][]trace.Record {
	done := make(chan map[string][]trace.Record)
	go func() {
		got := make(map[string][]trace.Record)
		for wnd := range g.Output() {
			got[wnd.Records[0].User] = append(got[wnd.Records[0].User], wnd.Records...)
		}
		done <- got
	}()
	return done
}

// TestControllerClosesTheLoop drives the paper's loop end to end over live
// traffic: a weak deployment serves a stream; mid-stream the designer
// tightens the objectives; the controller's observed estimates violate
// them, it re-runs Define → Model → Configure on the observed data and
// hot-swaps the tighter ε into the gateway. Zero records drop, the swap is
// visible only at window boundaries, and everything emitted before the
// swap is bit-identical to a run that never swapped.
func TestControllerClosesTheLoop(t *testing.T) {
	const (
		flushEvery      = 32
		windowsPerPhase = 3
		gwSeed          = 77
	)
	f := buildLoopFixture(t, flushEvery, windowsPerPhase)
	mkCfg := func() Config {
		cfg := ConfigFromDeployment(f.dep, gwSeed)
		cfg.Shards = 2
		cfg.FlushEvery = flushEvery
		return cfg
	}

	// Never-swapped baseline.
	gBase, err := New(context.Background(), mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	baseDone := collectGateway(gBase)
	if err := gBase.IngestAll(f.phase1); err != nil {
		t.Fatal(err)
	}
	if err := gBase.IngestAll(f.phase2); err != nil {
		t.Fatal(err)
	}
	if err := gBase.Close(); err != nil {
		t.Fatal(err)
	}
	baseline := <-baseDone

	// Controlled run.
	ctx := context.Background()
	g, err := New(ctx, mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(g, f.dep, ControllerConfig{
		Definition:    f.def,
		Objectives:    model.Objectives{MaxPrivacy: 0.95, MinUtility: 0.10},
		SampleFrac:    1,
		WindowRecords: f.phaseLen,
		MinWindows:    1,
		Tolerance:     0.05,
		Seed:          13,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := collectGateway(g)
	if err := g.IngestAll(f.phase1); err != nil {
		t.Fatal(err)
	}
	phase1Total := uint64(len(f.phase1))
	deadline := time.Now().Add(15 * time.Second)
	for g.Stats().Emitted != phase1Total {
		if time.Now().After(deadline) {
			t.Fatalf("phase-1 windows never fully emitted: %+v", g.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// The designer tightens the contract mid-stream on both sides: the
	// loosely-configured ε over-protects (observed utility ≈ 0.54, POI
	// retrieval 0), so the new utility floor is violated and the
	// controller must re-configure — a larger ε that restores utility
	// while staying under the new, much lower privacy cap.
	tight := model.Objectives{MaxPrivacy: 0.30, MinUtility: 0.65}
	if err := ctrl.SetObjectives(tight); err != nil {
		t.Fatal(err)
	}
	swapped, err := ctrl.Evaluate(ctx)
	if err != nil {
		t.Fatalf("evaluate: %v (stats %+v)", err, ctrl.Stats())
	}
	if !swapped {
		t.Fatalf("tightened objectives did not trigger a reconfiguration (estimates %+v)", ctrl.Stats())
	}
	oldEps := f.dep.Params[lppm.EpsilonParam]
	newEps := ctrl.Deployed().Params[lppm.EpsilonParam]
	if newEps == oldEps {
		t.Error("reconfiguration kept the old ε")
	}
	if newEps <= oldEps {
		t.Errorf("utility-driven drift must raise ε (less noise): got %v, had %v", newEps, oldEps)
	}
	if gen := g.Generation(); gen != 1 {
		t.Errorf("gateway generation = %d after swap, want 1", gen)
	}
	// A swap resets the aggregates: an immediate re-evaluation must be a
	// no-op instead of re-swapping on the predecessor's output.
	again, err := ctrl.Evaluate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if again {
		t.Error("evaluation right after a swap re-configured on stale pre-swap evidence")
	}

	if err := g.IngestAll(f.phase2); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	got := <-done

	st := g.Stats()
	if st.Dropped != 0 {
		t.Errorf("hot swap dropped %d records, want 0", st.Dropped)
	}
	if st.Emitted != uint64(len(f.phase1)+len(f.phase2)) {
		t.Errorf("emitted %d, want %d", st.Emitted, len(f.phase1)+len(f.phase2))
	}
	if st.Swaps != 1 {
		t.Errorf("gateway counted %d swaps, want 1", st.Swaps)
	}
	cs := ctrl.Stats()
	if cs.Swaps != 1 || cs.Evaluations == 0 {
		t.Errorf("controller stats %+v, want 1 swap and >= 1 evaluation", cs)
	}

	for u, want := range baseline {
		gotRecs := got[u]
		if len(gotRecs) != len(want) {
			t.Fatalf("user %s: %d records, want %d", u, len(gotRecs), len(want))
		}
		// Pre-swap: bit-identical to the never-swapped run.
		for i := 0; i < f.phaseLen; i++ {
			if gotRecs[i] != want[i] {
				t.Fatalf("user %s pre-swap record %d diverged from never-swapped run", u, i)
			}
		}
		// Post-swap: protected under the new ε — different output, same
		// identity and order (the swap happened at the window boundary).
		var changed int
		for i := f.phaseLen; i < len(want); i++ {
			if gotRecs[i].User != u || gotRecs[i].Time != want[i].Time {
				t.Fatalf("user %s post-swap record %d lost identity/order", u, i)
			}
			if gotRecs[i] != want[i] {
				changed++
			}
		}
		if changed == 0 {
			t.Errorf("user %s: no post-swap record reflects the tighter ε", u)
		}
	}
}

// TestControllerSamplingInterleavingIndependent checks the §3 discipline
// for the tap: which of a user's windows are sampled is a pure function of
// (seed, user, window index), so however shard goroutines interleave their
// Sample calls, identical-seed controllers make identical decisions.
func TestControllerSamplingInterleavingIndependent(t *testing.T) {
	mech := lppm.NewGeoIndistinguishability()
	def := core.Definition{
		Mechanism: mech,
		Privacy:   metrics.MustPOIRetrieval(metrics.DefaultPOIRetrievalConfig()),
		Utility:   metrics.MustAreaCoverage(metrics.DefaultAreaCoverageConfig()),
	}
	dep, err := core.NewDeployment(mech, nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Controller {
		g, err := New(context.Background(), Config{Mechanism: mech, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		c, err := NewController(g, dep, ControllerConfig{
			Definition: def,
			Objectives: model.Objectives{MaxPrivacy: 0.5, MinUtility: 0.5},
			SampleFrac: 0.3,
			Seed:       99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// First controller: users strictly alternating.
	a := mk()
	aAlice, aBob := a.User("alice"), a.User("bob")
	var seqA []bool
	for i := 0; i < 40; i++ {
		seqA = append(seqA, aAlice.Sample(8))
		aBob.Sample(8)
	}
	// Second controller: bob's windows all land first (a different shard
	// interleaving); alice's decisions must not move.
	b := mk()
	bAlice, bBob := b.User("alice"), b.User("bob")
	for i := 0; i < 40; i++ {
		bBob.Sample(8)
	}
	for i := 0; i < 40; i++ {
		if got := bAlice.Sample(8); got != seqA[i] {
			t.Fatalf("alice's sampling decision %d depends on interleaving: %v vs %v", i, got, seqA[i])
		}
	}
	sampled := 0
	for _, s := range seqA {
		if s {
			sampled++
		}
	}
	if sampled == 0 || sampled == len(seqA) {
		t.Errorf("SampleFrac 0.3 sampled %d/%d windows", sampled, len(seqA))
	}
}

// TestControllerObserveKeepsWindowPairsAligned covers mechanisms that
// change the record count (dummies inject, sampling drops): the sliding
// aggregate trims whole (actual, protected) window pairs, so both sides
// always cover the same windows of the stream.
func TestControllerObserveKeepsWindowPairsAligned(t *testing.T) {
	mech := lppm.NewGeoIndistinguishability()
	g, err := New(context.Background(), Config{Mechanism: mech, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
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
		Objectives:    model.Objectives{MaxPrivacy: 0.5, MinUtility: 0.5},
		WindowRecords: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := func(n int) []trace.Record {
		rs := makeRecords(1, n)
		for i := range rs {
			rs[i].User = "u"
		}
		return rs
	}
	// A dummy-injection-like mechanism: 8 actual records become 16.
	for i := 0; i < 5; i++ {
		ctrl.observe("u", 0, recs(8), recs(16))
	}
	ctrl.mu.Lock()
	defer ctrl.mu.Unlock()
	o := ctrl.users["u"]
	if o.actualLen > 16 {
		t.Errorf("actual aggregate holds %d records, cap is 16", o.actualLen)
	}
	if len(o.wins) != 2 {
		t.Fatalf("kept %d windows, want the 2 newest", len(o.wins))
	}
	for i, w := range o.wins {
		if len(w.actual) != 8 || len(w.protected) != 16 {
			t.Errorf("window %d: %d actual / %d protected, want the pair intact (8/16)",
				i, len(w.actual), len(w.protected))
		}
	}
}

// TestControllerObserveDropsStaleGenerations covers the swap/flush race: a
// shard mid-flush when a swap lands delivers a window protected under the
// old deployment after the aggregates were reset — it must be discarded,
// not counted as evidence about the new configuration.
func TestControllerObserveDropsStaleGenerations(t *testing.T) {
	mech := lppm.NewGeoIndistinguishability()
	g, err := New(context.Background(), Config{Mechanism: mech, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
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
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(1, 8)
	ctrl.mu.Lock()
	ctrl.minGen = 1 // as after a swap to generation 1
	ctrl.mu.Unlock()
	ctrl.observe("u00", 0, recs, recs) // old-generation window: dropped
	if cs := ctrl.Stats(); cs.WindowsObserved != 0 || cs.UsersTracked != 0 {
		t.Errorf("stale-generation window was retained: %+v", cs)
	}
	ctrl.observe("u00", 1, recs, recs) // current generation: kept
	if cs := ctrl.Stats(); cs.WindowsObserved != 1 || cs.UsersTracked != 1 {
		t.Errorf("current-generation window was not retained: %+v", cs)
	}
}

// TestControllerEvictsIdleUsers bounds the controller's memory: a user with
// no sampled window across two consecutive evaluations loses their sliding
// aggregates; active users keep theirs.
func TestControllerEvictsIdleUsers(t *testing.T) {
	mech := lppm.NewGeoIndistinguishability()
	g, err := New(context.Background(), Config{Mechanism: mech, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
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
		// Loose enough that the identity-like observations never drift.
		Objectives:     model.Objectives{MaxPrivacy: 0.99, MinUtility: 0.01},
		MinWindows:     1,
		MinUserRecords: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := func(user string) []trace.Record {
		rs := makeRecords(1, 8)
		for i := range rs {
			rs[i].User = user
		}
		return rs
	}
	alive := func(user string) bool {
		ctrl.mu.Lock()
		defer ctrl.mu.Unlock()
		_, ok := ctrl.users[user]
		return ok
	}
	ctrl.observe("idle", 0, recs("idle"), recs("idle"))
	ctrl.observe("busy", 0, recs("busy"), recs("busy"))
	if _, err := ctrl.Evaluate(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !alive("idle") || !alive("busy") {
		t.Fatal("first evaluation must not evict anyone")
	}
	ctrl.observe("busy", 0, recs("busy"), recs("busy"))
	if _, err := ctrl.Evaluate(context.Background()); err != nil {
		t.Fatal(err)
	}
	if alive("idle") {
		t.Error("user with no sampled window since the previous evaluation must be evicted")
	}
	if !alive("busy") {
		t.Error("user observed since the previous evaluation must survive")
	}
}

// TestControllerDeriveOverrides checks the personalization rule in
// isolation: a user whose observed privacy sits far above the population
// mean gets the ε the shared model inverts for their own target; users the
// global value already covers get none.
func TestControllerDeriveOverrides(t *testing.T) {
	mech := lppm.NewGeoIndistinguishability()
	g, err := New(context.Background(), Config{Mechanism: mech, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	def := core.Definition{
		Mechanism: mech,
		Param:     lppm.EpsilonParam,
		Privacy:   metrics.MustPOIRetrieval(metrics.DefaultPOIRetrievalConfig()),
		Utility:   metrics.MustAreaCoverage(metrics.DefaultAreaCoverageConfig()),
	}
	dep, err := core.NewDeployment(mech, lppm.Params{lppm.EpsilonParam: 0.0076})
	if err != nil {
		t.Fatal(err)
	}
	dep.Param = lppm.EpsilonParam
	dep.Configuration = model.Configuration{Feasible: true, Value: 0.0076, PredictedPrivacy: 0.2}
	ctrl, err := NewController(g, dep, ControllerConfig{
		Definition:       def,
		Objectives:       model.Objectives{MaxPrivacy: 0.30, MinUtility: 0.10},
		PerUserOverrides: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	analysis := &core.Analysis{
		Definition:   def,
		PrivacyModel: model.LogLinear{A: 1.9, B: 0.347, XMin: 0.003, XMax: 0.1},
	}
	ests := []estimate{
		{user: "outlier", priv: 0.5},
		{user: "typical", priv: 0.1},
	}
	ctrl.deriveOverrides(dep, analysis, ests, 0.3, model.Objectives{MaxPrivacy: 0.30, MinUtility: 0.10})
	if _, ok := dep.Overrides["typical"]; ok {
		t.Error("user at the population mean must not be overridden")
	}
	over, ok := dep.Overrides["outlier"]
	if !ok {
		t.Fatal("outlier user (offset +0.2 above mean) must be overridden")
	}
	// target = 0.3 - 0.2 = 0.1; model inverts to exp((0.1-1.9)/0.347),
	// tighter than the shared 0.0076.
	if eps := over[lppm.EpsilonParam]; eps >= 0.0076 || eps < 0.003 {
		t.Errorf("override ε = %v, want tighter than shared 0.0076 and inside model validity", eps)
	}
}

func TestControllerValidation(t *testing.T) {
	mech := lppm.NewGeoIndistinguishability()
	g, err := New(context.Background(), Config{Mechanism: mech, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	dep, err := core.NewDeployment(mech, nil)
	if err != nil {
		t.Fatal(err)
	}
	def := core.Definition{
		Mechanism: mech,
		Privacy:   metrics.MustPOIRetrieval(metrics.DefaultPOIRetrievalConfig()),
		Utility:   metrics.MustAreaCoverage(metrics.DefaultAreaCoverageConfig()),
	}
	if _, err := NewController(nil, dep, ControllerConfig{Definition: def}); err == nil {
		t.Error("nil gateway must fail")
	}
	if _, err := NewController(g, nil, ControllerConfig{Definition: def}); err == nil {
		t.Error("nil deployment must fail")
	}
	if _, err := NewController(g, dep, ControllerConfig{}); err == nil {
		t.Error("missing definition must fail")
	}
	badDef := def
	badDef.Mechanism = lppm.NewCoordinateRounding()
	if _, err := NewController(g, dep, ControllerConfig{Definition: badDef}); err == nil {
		t.Error("mechanism mismatch must fail")
	}
	typoDef := def
	typoDef.Param = "epsilonn"
	if _, err := NewController(g, dep, ControllerConfig{Definition: typoDef}); err == nil {
		t.Error("misspelled Param must fail at construction, not at every Evaluate")
	}
	elastic := lppm.NewElasticGeoInd()
	elasticDep, err := core.NewDeployment(elastic, nil)
	if err != nil {
		t.Fatal(err)
	}
	elasticDef := def
	elasticDef.Mechanism = elastic
	if _, err := NewController(g, elasticDep, ControllerConfig{Definition: elasticDef}); err == nil {
		t.Error("multi-parameter mechanism without Param must fail at construction")
	}
	if _, err := NewController(g, dep, ControllerConfig{Definition: def, SampleFrac: 2}); err == nil {
		t.Error("SampleFrac > 1 must fail")
	}
	if _, err := NewController(g, dep, ControllerConfig{Definition: def, MinWindows: -1}); err == nil {
		t.Error("negative MinWindows must fail (would wrap to a huge uint64 gate)")
	}
	if _, err := NewController(g, dep, ControllerConfig{Definition: def, MinUserRecords: -1}); err == nil {
		t.Error("negative MinUserRecords must fail")
	}
	c, err := NewController(g, dep, ControllerConfig{Definition: def})
	if err != nil {
		t.Fatal(err)
	}
	// Too little data: evaluation is a clean no-op — and it must not
	// clear a standing reconfiguration failure the operator hasn't seen.
	c.mu.Lock()
	c.lastErr = errors.New("boom")
	c.mu.Unlock()
	swapped, err := c.Evaluate(context.Background())
	if swapped || err != nil {
		t.Errorf("empty evaluate = (%v, %v), want (false, nil)", swapped, err)
	}
	if le := c.Stats().LastErr; le == nil || le.Error() != "boom" {
		t.Errorf("no-op evaluation cleared LastErr (now %v)", le)
	}
	if err := c.SetObjectives(model.Objectives{MaxPrivacy: 0.1, MinUtility: 0.8}); err != nil {
		t.Fatal(err)
	}
	if got := c.Objectives(); got.MaxPrivacy != 0.1 || got.MinUtility != 0.8 {
		t.Errorf("objectives = %+v after SetObjectives", got)
	}
}
