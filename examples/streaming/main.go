// Streaming: the full paper pipeline wired to live traffic — and kept
// closed over it. Steps 1–3 (Analyze → Deploy) pick the GEO-I ε offline
// exactly as in the quickstart; the resulting deployment then serves an
// online location stream through the sharded protection gateway. A
// reconfiguration controller taps the served stream, estimates the live
// privacy/utility, and when the designer tightens the objectives
// mid-stream it re-runs the analysis on the observed data and hot-swaps
// the re-configured ε into the gateway — no restart, no record lost.
package main

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/lppm"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/trace"
)

// logger is the example's structured logger; once the gateway exists it
// is rebuilt to stamp the serving generation on every line.
var logger *slog.Logger

func fatal(err error) {
	logger.Error("fatal", "err", err)
	os.Exit(1)
}

func main() {
	logger = obs.NewLogger(os.Stderr, obs.LoggerOptions{})

	// Offline: a day of synthetic cabs, analyzed and configured — here
	// under deliberately loose objectives, the kind of first guess a
	// designer later revisits.
	gen := synth.DefaultConfig()
	gen.NumDrivers = 30
	gen.Duration = 12 * time.Hour
	fleet, err := synth.Generate(gen, nil)
	if err != nil {
		fatal(err)
	}
	def := core.Definition{
		Mechanism: lppm.NewGeoIndistinguishability(),
		Privacy:   metrics.MustPOIRetrieval(metrics.DefaultPOIRetrievalConfig()),
		Utility:   metrics.MustAreaCoverage(metrics.DefaultAreaCoverageConfig()),
		Repeats:   2,
		Seed:      42,
	}
	analysis, err := core.Analyze(context.Background(), def, fleet.Dataset)
	if err != nil {
		fatal(err)
	}
	loose := model.Objectives{MaxPrivacy: 0.95, MinUtility: 0.10}
	dep, err := analysis.Deploy(loose)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("deploying %s with %s = %.4g (objectives: privacy ≤ %.2f, utility ≥ %.2f)\n",
		dep.Mechanism.Name(), dep.Param, dep.Params[dep.Param], loose.MaxPrivacy, loose.MinUtility)

	// Online: flatten the dataset into one global time-ordered stream —
	// the shape of live traffic, records of all users interleaved.
	var stream []trace.Record
	for _, tr := range fleet.Dataset.Traces() {
		stream = append(stream, tr.Records...)
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Time.Before(stream[j].Time) })

	cfg := service.ConfigFromDeployment(dep, 42)
	cfg.Shards = 4
	cfg.FlushEvery = 16
	gw, err := service.New(context.Background(), cfg)
	if err != nil {
		fatal(err)
	}
	// From here every log line carries the serving generation — it flips
	// from 0 to 1 when the controller hot-swaps below.
	logger = obs.NewLogger(os.Stderr, obs.LoggerOptions{Generation: gw.Generation})
	// The controller closes the loop over the served stream: it observes
	// a quarter of the flushed windows and re-runs Define→Model→Configure
	// on the observed data whenever the estimates drift outside the
	// objectives.
	reDef := def
	reDef.GridPoints = 9 // online re-analysis trades resolution for latency
	reDef.Repeats = 1
	ctrl, err := service.NewController(gw, dep, service.ControllerConfig{
		Definition: reDef,
		Objectives: loose,
		SampleFrac: 0.25,
		Tolerance:  0.05,
		Seed:       7,
	})
	if err != nil {
		fatal(err)
	}
	protected := make(chan int, 1)
	go func() {
		n := 0
		for wnd := range gw.Output() {
			n += len(wnd.Records)
		}
		protected <- n
	}()

	start := time.Now()
	half := len(stream) / 2
	if err := gw.IngestAll(stream[:half]); err != nil {
		fatal(err)
	}
	// IngestAll returns once records are queued, not flushed: wait until
	// the controller has actually observed enough phase-1 windows, or
	// Evaluate would no-op on an empty aggregate and the narrative below
	// would be wrong.
	for deadline := time.Now().Add(10 * time.Second); ctrl.Stats().WindowsObserved < 40; {
		if time.Now().After(deadline) {
			fatal(fmt.Errorf("phase-1 windows never observed: %+v", ctrl.Stats()))
		}
		time.Sleep(time.Millisecond)
	}
	// Mid-stream the designer tightens the contract on both sides. The
	// loose ε over-protects — observed utility sits far below the new
	// floor — so the controller re-configures from the observed traffic
	// and hot-swaps the result into the running gateway.
	tight := model.Objectives{MaxPrivacy: 0.30, MinUtility: 0.65}
	if err := ctrl.SetObjectives(tight); err != nil {
		fatal(err)
	}
	// Counters snapshot before Evaluate: a swap resets the aggregates, so
	// reading them after would misreport the data the decision used.
	pre := ctrl.Stats()
	swapped, err := ctrl.Evaluate(context.Background())
	cs := ctrl.Stats()
	fmt.Printf("mid-stream: objectives tightened to privacy ≤ %.2f, utility ≥ %.2f\n",
		tight.MaxPrivacy, tight.MinUtility)
	fmt.Printf("controller: observed %d windows of %d users, estimates privacy=%.3f utility=%.3f\n",
		pre.WindowsObserved, pre.UsersTracked, cs.LastPrivacy, cs.LastUtility)
	switch {
	case err != nil:
		fmt.Printf("controller: reconfiguration failed, keeping old ε: %v\n", err)
	case swapped:
		fmt.Printf("controller: drift detected, hot-swapped %s = %.4g (generation %d)\n",
			dep.Param, ctrl.Deployed().Params[dep.Param], gw.Generation())
	default:
		fmt.Println("controller: observed stream still meets the objectives, nothing to do")
	}
	if err := gw.IngestAll(stream[half:]); err != nil {
		fatal(err)
	}
	if err := gw.Close(); err != nil {
		fatal(err)
	}
	n := <-protected
	elapsed := time.Since(start)

	st := gw.Stats()
	fmt.Printf("streamed %d records of %d users through %d shards in %s (%.0f points/sec)\n",
		st.Ingested, st.Users, len(st.PerShard), elapsed.Round(time.Millisecond),
		float64(n)/elapsed.Seconds())
	fmt.Printf("swaps=%d stream-reconfigs=%d dropped=%d\n", st.Swaps, st.Reconfigs, st.Dropped)
	for i, ss := range st.PerShard {
		fmt.Printf("  shard %d: %d users, %d records, %d flushes\n", i, ss.Users, ss.Ingested, ss.Flushes)
	}
	if n != len(stream) {
		fatal(fmt.Errorf("protected %d records, ingested %d", n, len(stream)))
	}
	fmt.Println("every ingested record came back protected — across the swap")
}
