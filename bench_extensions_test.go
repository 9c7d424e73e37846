// Extension benchmarks: the paper's §4 future-work agenda ("other LPPMs and
// datasets ... more metrics and parameters") plus the ablations DESIGN.md §5
// calls out for the machinery added on top of the core reproduction:
//
//	BenchmarkX3NewLPPMSweeps            – promesse/rounding/dummies/elastic
//	BenchmarkX4LBSQualityVsEpsilon      – end-to-end service quality curve
//	BenchmarkX5ReidentificationVsEpsilon– linkage-attack success vs ε
//	BenchmarkX6CommuterDatasetTransfer  – other-dataset model constants
//	BenchmarkAblationModelFamily        – Equation 2 vs full-curve sigmoid
//	BenchmarkAblationSmoothingAttack    – i.i.d. noise vs trajectory attack
//	BenchmarkParetoFrontConstruction    – trade-off front + knee
//	BenchmarkConfigurationConfidence    – bootstrap CI on the recommended ε
package repro_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/lbs"
	"repro/internal/lppm"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/stat"
	"repro/internal/synth"
)

// BenchmarkX3NewLPPMSweeps runs the framework pipeline over the four
// mechanisms added beyond the paper's baselines. Each must yield a
// modelable utility curve; the privacy responses characterize the
// mechanism families (noise, resampling, generalization, decoys).
func BenchmarkX3NewLPPMSweeps(b *testing.B) {
	f := getFixture(b)
	ms := []metrics.Metric{
		metrics.MustPOIRetrieval(metrics.DefaultPOIRetrievalConfig()),
		metrics.MustAreaCoverage(metrics.DefaultAreaCoverageConfig()),
	}
	cases := []struct {
		mech  lppm.Mechanism
		param string
	}{
		{lppm.NewPromesse(), lppm.AlphaParam},
		{lppm.NewCoordinateRounding(), lppm.DigitsParam},
		{lppm.NewDummyInjection(), lppm.WalkersParam},
		{lppm.NewElasticGeoInd(), lppm.EpsilonParam},
	}
	for _, c := range cases {
		var spec lppm.ParamSpec
		for _, s := range c.mech.Params() {
			if s.Name == c.param {
				spec = s
			}
		}
		var values []float64
		if spec.LogScale {
			values = stat.LogSpace(spec.Min, spec.Max, 11)
		} else {
			values = stat.LinSpace(spec.Min, spec.Max, 7)
		}
		sweep := &eval.Sweep{
			Mechanism: c.mech,
			Param:     c.param,
			Values:    values,
			Metrics:   ms,
			Repeats:   1,
			Seed:      17,
			Fixed:     lppm.Defaults(c.mech),
		}
		res, err := eval.Run(context.Background(), sweep, f.dataset)
		if err != nil {
			b.Fatal(err)
		}
		xs, pr, err := res.Series("poi_retrieval")
		if err != nil {
			b.Fatal(err)
		}
		_, ut, err := res.Series("area_coverage")
		if err != nil {
			b.Fatal(err)
		}
		logSeries(b, "X3 privacy: "+c.mech.Name(), c.param, xs, pr)
		logSeries(b, "X3 utility: "+c.mech.Name(), c.param, xs, ut)
	}

	small := smallSubset(f.dataset, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep := &eval.Sweep{
			Mechanism: lppm.NewPromesse(),
			Param:     lppm.AlphaParam,
			Values:    stat.LogSpace(10, 5000, 5),
			Metrics:   ms,
			Repeats:   1,
			Seed:      int64(i),
		}
		if _, err := eval.Run(context.Background(), sweep, small); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX4LBSQualityVsEpsilon regenerates the end-to-end service-quality
// figure: the fraction of top-5 venue recommendations unchanged by
// protection, against ε. It must be monotone-ish rising, low under heavy
// noise and ≥ 0.95 under negligible noise — the deployed-quality analogue
// of Figure 1(b).
func BenchmarkX4LBSQualityVsEpsilon(b *testing.B) {
	f := getFixture(b)
	box, ok := f.dataset.BBox()
	if !ok {
		b.Fatal("empty dataset")
	}
	venues, err := lbs.GenerateVenues(box, 1500, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	index, err := lbs.NewIndex(venues, 500)
	if err != nil {
		b.Fatal(err)
	}
	quality, err := lbs.NewKNNQuality(index, lbs.DefaultKNNQualityConfig())
	if err != nil {
		b.Fatal(err)
	}
	xs := stat.LogSpace(1e-4, 1, 13)
	sweep := &eval.Sweep{
		Mechanism: lppm.NewGeoIndistinguishability(),
		Param:     lppm.EpsilonParam,
		Values:    xs,
		Metrics:   []metrics.Metric{quality},
		Repeats:   1,
		Seed:      23,
	}
	res, err := eval.Run(context.Background(), sweep, f.dataset)
	if err != nil {
		b.Fatal(err)
	}
	_, ys, err := res.Series(quality.Name())
	if err != nil {
		b.Fatal(err)
	}
	logSeries(b, "X4: LBS top-5 service quality vs epsilon", "eps", xs, ys)
	if ys[0] > 0.3 {
		b.Fatalf("quality at ε=1e-4 is %v, want low (2 km noise)", ys[0])
	}
	if ys[len(ys)-1] < 0.95 {
		b.Fatalf("quality at ε=1 is %v, want ≥ 0.95", ys[len(ys)-1])
	}
	if _, err := model.FitSigmoidModel(xs, ys); err != nil {
		b.Fatalf("quality curve not modelable: %v", err)
	}
	b.ReportMetric(ys[len(ys)/2], "quality-at-eps-0.01")

	user := f.dataset.Users()[0]
	tr := f.dataset.Trace(user)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Unit of work: one user's protected service session.
		prot, err := lppm.NewGeoIndistinguishability().
			Protect(tr, lppm.Params{lppm.EpsilonParam: 0.01}, rng.New(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := quality.Evaluate(tr, prot); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX5ReidentificationVsEpsilon regenerates the operational privacy
// curve: the fraction of users an adversary with background knowledge links
// back to their protected release, against ε. At ε = 1 (4 m noise) the
// fingerprints survive; under heavy noise linkage must collapse toward the
// 1/N guessing floor.
func BenchmarkX5ReidentificationVsEpsilon(b *testing.B) {
	f := getFixture(b)
	xs := []float64{1e-4, 1e-3, 3.2e-3, 1e-2, 3.2e-2, 1e-1, 1}
	ys := make([]float64, len(xs))
	mech := lppm.NewGeoIndistinguishability()
	for i, eps := range xs {
		prot, err := lppm.ProtectDataset(f.dataset, mech, lppm.Params{lppm.EpsilonParam: eps}, rng.New(31))
		if err != nil {
			b.Fatal(err)
		}
		res, err := attack.Reidentify(f.dataset, prot, attack.DefaultReidentConfig())
		if err != nil {
			b.Fatal(err)
		}
		ys[i] = res.SuccessRate
	}
	logSeries(b, "X5: re-identification success vs epsilon", "eps", xs, ys)
	if ys[len(ys)-1] < 0.8 {
		b.Fatalf("re-identification at ε=1 is %v, want ≥ 0.8 (fingerprints intact)", ys[len(ys)-1])
	}
	guessFloor := 1.0 / float64(f.dataset.NumUsers())
	if ys[0] > 5*guessFloor {
		b.Fatalf("re-identification at ε=1e-4 is %v, want near the guessing floor %v", ys[0], guessFloor)
	}
	b.ReportMetric(ys[3], "reident-at-eps-0.01")

	small := smallSubset(f.dataset, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prot, err := lppm.ProtectDataset(small, mech, lppm.Params{lppm.EpsilonParam: 0.01}, rng.New(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := attack.Reidentify(small, prot, attack.DefaultReidentConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX6CommuterDatasetTransfer regenerates the other-dataset
// experiment: the same framework definition on the commuter archetype must
// yield different Equation-2 constants, and the taxi-tuned ε must leak more
// on commuters (see examples/datasettransfer for the narrative version).
func BenchmarkX6CommuterDatasetTransfer(b *testing.B) {
	f := getFixture(b)
	cfg := synth.DefaultCommuterConfig()
	cfg.NumUsers = 15
	cfg.Days = 2
	commuters, err := synth.GenerateCommuters(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	def := core.Definition{
		Mechanism:  lppm.NewGeoIndistinguishability(),
		Privacy:    metrics.MustPOIRetrieval(metrics.DefaultPOIRetrievalConfig()),
		Utility:    metrics.MustAreaCoverage(metrics.DefaultAreaCoverageConfig()),
		GridPoints: 17,
		Repeats:    1,
		Seed:       42,
	}
	commAnalysis, err := core.Analyze(context.Background(), def, commuters.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	taxiPM := f.analysis.PrivacyModel
	commPM := commAnalysis.PrivacyModel
	b.Logf("X6: taxi      Pr = %.3f + %.3f·ln(ε)", taxiPM.A, taxiPM.B)
	b.Logf("X6: commuter  Pr = %.3f + %.3f·ln(ε)", commPM.A, commPM.B)

	// Commuter POIs (overnight dwells) survive more noise: at the taxi
	// model's "10 % retrieved" ε, the commuter model must predict more
	// leakage.
	taxiEps, err := taxiPM.Invert(0.10)
	if err != nil {
		b.Fatal(err)
	}
	commPredicted := commPM.Predict(taxiEps)
	b.Logf("X6: at taxi-tuned ε=%.4g the commuter model predicts Pr=%.3f", taxiEps, commPredicted)
	if commPredicted <= 0.10 {
		b.Fatalf("commuter leakage %v at taxi ε should exceed the 0.10 objective", commPredicted)
	}
	b.ReportMetric(commPredicted, "commuter-privacy-at-taxi-eps")
	b.ReportMetric(commPM.B, "commuter-privacy-slope")

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cfg
		c.NumUsers = 3
		c.Seed = int64(i)
		if _, err := synth.GenerateCommuters(c, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationModelFamily contrasts the paper's log-linear Equation 2
// with the full-curve sigmoid: both must place the headline configuration
// in the same decade, while the sigmoid fits the whole sweep strictly
// better than the log-linear extrapolated globally.
func BenchmarkAblationModelFamily(b *testing.B) {
	f := getFixture(b)
	obj := model.Objectives{MaxPrivacy: 0.10, MinUtility: 0.80}
	linear, err := f.analysis.Configure(obj)
	if err != nil {
		b.Fatal(err)
	}
	full, err := f.analysis.ConfigureFullCurve(obj)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("ablation: log-linear ε=%.4g (feasible=%v) vs sigmoid ε=%.4g (feasible=%v)",
		linear.Value, linear.Feasible, full.Value, full.Feasible)
	if !linear.Feasible || !full.Feasible {
		b.Fatal("both families must find the paper objectives feasible on the fixture")
	}
	ratio := full.Value / linear.Value
	if ratio < 0.2 || ratio > 5 {
		b.Fatalf("families disagree beyond a factor 5: %v vs %v", linear.Value, full.Value)
	}
	b.ReportMetric(ratio, "sigmoid-over-linear-eps-ratio")

	xs, ys, err := f.sweep.Series("poi_retrieval")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.FitSigmoidModel(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSmoothingAttack quantifies the classic caveat that
// per-point geo-indistinguishability erodes over correlated trajectories: a
// moving-average adversary removes a large share of GEO-I's noise, but gets
// nothing from Promesse, whose protection is structural.
//
// The GEO-I gain depends far more on the fleet than on the noise (one
// fleet varies by about ±0.01 over noise seeds, fleets span 0.06–0.27), so
// the check is stated over the mean of a fixed set of fleets: the fixture's
// shape under synth seeds 1–8.
func BenchmarkAblationSmoothingAttack(b *testing.B) {
	f := getFixture(b)
	geoi := lppm.NewGeoIndistinguishability()
	adv := attack.SmoothingAdvantage{Window: 9}

	fleetGains := make([]float64, 0, 8)
	for seed := int64(1); seed <= 8; seed++ {
		cfg := synth.DefaultConfig()
		cfg.NumDrivers = 25
		cfg.Duration = 12 * time.Hour
		cfg.Seed = seed
		fleet, err := synth.Generate(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		noise := rng.New(3)
		users := fleet.Dataset.Users()
		gains := make([]float64, 0, len(users))
		for _, u := range users {
			tr := fleet.Dataset.Trace(u)
			prot, err := geoi.Protect(tr, lppm.Params{lppm.EpsilonParam: 0.01}, noise.Named(u))
			if err != nil {
				b.Fatal(err)
			}
			g, err := adv.Evaluate(tr, prot)
			if err != nil {
				b.Fatal(err)
			}
			gains = append(gains, g)
		}
		fleetGains = append(fleetGains, stat.Mean(gains))
		b.Logf("ablation: synth seed %d: smoothing removes %.1f%% of GEO-I noise at ε=0.01 (mean over %d users)",
			seed, stat.Mean(gains)*100, len(users))
	}
	meanGain := stat.Mean(fleetGains)
	b.Logf("ablation: smoothing removes %.1f%% of GEO-I noise at ε=0.01 (mean over %d fleets)",
		meanGain*100, len(fleetGains))
	// Sparse sampling (60 s fixes at driving speed) limits what the
	// window can average without blurring the path, so the gain is
	// smaller than on densely-sampled drives — but must stay material.
	if meanGain < 0.1 {
		b.Fatalf("smoothing gain %v, want ≥ 0.1 on i.i.d. noise", meanGain)
	}

	users := f.dataset.Users()
	promesse := lppm.NewPromesse()
	tr := f.dataset.Trace(users[0])
	pprot, err := promesse.Protect(tr, lppm.Params{lppm.AlphaParam: 200}, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	pGain, err := adv.Evaluate(tr, pprot)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("ablation: smoothing removes %.0f%% from Promesse (structural protection)", pGain*100)
	if pGain > 0.05 {
		b.Fatalf("promesse smoothing gain %v, want ≈ 0", pGain)
	}
	b.ReportMetric(meanGain, "geoi-smoothing-gain")

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prot, err := geoi.Protect(tr, lppm.Params{lppm.EpsilonParam: 0.01}, rng.New(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := adv.Evaluate(tr, prot); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParetoFrontConstruction regenerates the trade-off front of the
// canonical sweep and checks its invariants (monotone utility along the
// privacy-sorted front, knee exists).
func BenchmarkParetoFrontConstruction(b *testing.B) {
	f := getFixture(b)
	front, err := f.analysis.Pareto()
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i < len(front); i++ {
		if front[i].Utility < front[i-1].Utility {
			b.Fatalf("front utility decreases at %d", i)
		}
	}
	knee, ok := model.KneePoint(front)
	if !ok {
		b.Fatal("front must have a knee")
	}
	b.Logf("pareto: %d non-dominated points; knee ε=%.4g (privacy %.3f, utility %.3f)",
		len(front), knee.X, knee.Privacy, knee.Utility)
	b.ReportMetric(float64(len(front)), "front-size")
	b.ReportMetric(knee.X, "knee-eps")

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.analysis.Pareto(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConfigurationConfidence bootstrap-quantifies how stable the
// recommended ε is under the sweep's measurement noise — the calibration
// the framework's point answer needs before a designer deploys it.
func BenchmarkConfigurationConfidence(b *testing.B) {
	f := getFixture(b)
	obj := model.Objectives{MaxPrivacy: 0.5, MinUtility: 0.6}
	ci, err := f.analysis.ConfigureWithConfidence(obj, 300, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("confidence: ε = %.4g [%.4g, %.4g] @90%%, feasible in %.0f%% of replicates",
		ci.Value.Point, ci.Value.Lo, ci.Value.Hi, ci.FeasibleFraction*100)
	if ci.Value.Lo > ci.Value.Hi {
		b.Fatalf("malformed CI %+v", ci.Value)
	}
	if ci.FeasibleFraction < 0.5 {
		b.Fatalf("feasible fraction %v, want ≥ 0.5 with relaxed objectives", ci.FeasibleFraction)
	}
	b.ReportMetric(ci.Value.Hi/ci.Value.Lo, "ci-width-ratio")

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.analysis.ConfigureWithConfidence(obj, 50, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}
