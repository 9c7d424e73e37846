package server_test

import (
	"context"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lppm"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/trace"
)

// netLoopFixture is the network twin of the service package's loop
// fixture: a synthetic fleet truncated to exactly two phases per user,
// analyzed and deployed under loose objectives so a mid-stream tightening
// forces a reconfiguration.
type netLoopFixture struct {
	def      core.Definition
	dep      *core.Deployment
	phase1   []trace.Record
	phase2   []trace.Record
	phaseLen int
}

func buildNetLoopFixture(t *testing.T, flushEvery, windowsPerPhase int) *netLoopFixture {
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
	dep, err := analysis.Deploy(model.Objectives{MaxPrivacy: 0.95, MinUtility: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	f := &netLoopFixture{def: def, dep: dep, phaseLen: phase}
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

// TestControllerUnderNetworkLoad extends TestControllerClosesTheLoop
// through the network path: a drift reconfiguration fires while a
// /v1/stream connection is live, and no window is dropped or double-served
// across the Swap — every record sent over the socket comes back exactly
// once, pre-swap output is bit-identical to a never-swapped server, and
// post-swap output reflects the new parameter at the window boundary.
func TestControllerUnderNetworkLoad(t *testing.T) {
	const (
		flushEvery      = 32
		windowsPerPhase = 3
		gwSeed          = 77
	)
	f := buildNetLoopFixture(t, flushEvery, windowsPerPhase)
	mkCfg := func() service.Config {
		cfg := service.ConfigFromDeployment(f.dep, gwSeed)
		cfg.Shards = 2
		cfg.FlushEvery = flushEvery
		return cfg
	}

	// Never-swapped baseline, over the same network path.
	baseEnv := newEnv(t, mkCfg(), nil)
	baseline := streamAll(t, baseEnv.cl, append(append([]trace.Record{}, f.phase1...), f.phase2...))

	// Controlled run: gateway + controller, server wired to both.
	gw, err := service.New(context.Background(), mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := service.NewController(gw, f.dep, service.ControllerConfig{
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
	srv, err := server.New(server.Config{Gateway: gw, Controller: ctrl, Seed: gwSeed})
	if err != nil {
		t.Fatal(err)
	}
	cl := startServer(t, srv)

	ctx := context.Background()
	st, err := cl.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string][]trace.Record)
	var mu sync.Mutex
	var recvN atomic.Int64
	recvDone := make(chan error, 1)
	go func() {
		for {
			rec, err := st.Recv()
			if err == io.EOF {
				recvDone <- nil
				return
			}
			if err != nil {
				recvDone <- err
				return
			}
			mu.Lock()
			got[rec.User] = append(got[rec.User], rec)
			mu.Unlock()
			recvN.Add(1)
		}
	}()
	for _, rec := range f.phase1 {
		if err := st.Send(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the client has received all of phase 1: every window is
	// flushed, delivered AND observed by the controller's tap (Observe
	// runs before the window is emitted).
	deadline := time.Now().Add(15 * time.Second)
	for recvN.Load() != int64(len(f.phase1)) {
		if time.Now().After(deadline) {
			t.Fatalf("phase-1 records never fully received: %d of %d", recvN.Load(), len(f.phase1))
		}
		time.Sleep(time.Millisecond)
	}

	// The designer tightens the contract mid-stream; the controller's
	// estimates violate it and the drift reconfiguration fires while the
	// stream connection is live.
	tight := model.Objectives{MaxPrivacy: 0.30, MinUtility: 0.65}
	if err := ctrl.SetObjectives(tight); err != nil {
		t.Fatal(err)
	}
	swapped, err := ctrl.Evaluate(ctx)
	if err != nil {
		t.Fatalf("evaluate: %v (stats %+v)", err, ctrl.Stats())
	}
	if !swapped {
		t.Fatalf("tightened objectives did not trigger a reconfiguration (stats %+v)", ctrl.Stats())
	}

	for _, rec := range f.phase2 {
		if err := st.Send(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}

	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Gateway.Dropped != 0 {
		t.Errorf("swap under network load dropped %d records", stats.Gateway.Dropped)
	}
	total := len(f.phase1) + len(f.phase2)
	if stats.Gateway.Emitted != uint64(total) || recvN.Load() != int64(total) {
		t.Errorf("emitted %d, received %d, want %d — no window may be dropped or double-served",
			stats.Gateway.Emitted, recvN.Load(), total)
	}
	if stats.Gateway.Swaps != 1 || stats.Gateway.Generation != 1 {
		t.Errorf("gateway swaps=%d generation=%d, want 1 and 1", stats.Gateway.Swaps, stats.Gateway.Generation)
	}
	if stats.Controller == nil || stats.Controller.Swaps != 1 || stats.Controller.Evaluations == 0 {
		t.Errorf("controller stats %+v, want 1 swap and >= 1 evaluation", stats.Controller)
	}

	for u, want := range baseline {
		gotRecs := got[u]
		if len(gotRecs) != len(want) {
			t.Fatalf("user %s: %d records, want %d", u, len(gotRecs), len(want))
		}
		// Pre-swap: bit-identical to the never-swapped server.
		for i := 0; i < f.phaseLen; i++ {
			if gotRecs[i] != want[i] {
				t.Fatalf("user %s pre-swap record %d diverged from never-swapped run", u, i)
			}
		}
		// Post-swap: same identity and order, different protection.
		changed := 0
		for i := f.phaseLen; i < len(want); i++ {
			if gotRecs[i].User != u || gotRecs[i].Time != want[i].Time {
				t.Fatalf("user %s post-swap record %d lost identity/order", u, i)
			}
			if gotRecs[i] != want[i] {
				changed++
			}
		}
		if changed == 0 {
			t.Errorf("user %s: no post-swap record reflects the reconfigured parameter", u)
		}
	}
}
