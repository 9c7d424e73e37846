package model

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/stat"
)

// ConfigurationCI reports the uncertainty of a model-based recommendation:
// how much the recommended parameter value moves when the sweep's
// measurement noise is resampled. A wide interval tells the designer to
// sweep with more repeats before trusting the configuration — turning the
// framework's point answer into a calibrated one.
type ConfigurationCI struct {
	// Value is the percentile confidence interval of the recommended
	// parameter (percentiles taken in log space, the parameter's natural
	// scale).
	Value stat.CI
	// FeasibleFraction is the share of bootstrap replicates whose
	// objectives stayed feasible.
	FeasibleFraction float64
	// Replicates is the number of bootstrap replicates attempted.
	Replicates int
}

// BootstrapConfigure estimates a confidence interval for Configure's
// recommendation by residual-bootstrapping the two metric series: residuals
// of each base fit are resampled with replacement, added back onto the
// fitted curve inside the active zone, the models are refitted and
// re-inverted. Replicates whose refit fails or whose objectives become
// infeasible are counted in FeasibleFraction but contribute no value
// sample. level is the two-sided coverage in (0, 1).
func BootstrapConfigure(r *rng.Source, xs, privacy, utility []float64, tolFrac float64, obj Objectives, iters int, level float64) (ConfigurationCI, error) {
	if iters < 2 {
		return ConfigurationCI{}, fmt.Errorf("model: bootstrap needs ≥ 2 iterations, got %d", iters)
	}
	if level <= 0 || level >= 1 {
		return ConfigurationCI{}, fmt.Errorf("model: bootstrap level must be in (0,1), got %v", level)
	}
	pBase, err := FitLogLinear(xs, privacy, tolFrac)
	if err != nil {
		return ConfigurationCI{}, fmt.Errorf("model: bootstrap base privacy fit: %w", err)
	}
	uBase, err := FitLogLinear(xs, utility, tolFrac)
	if err != nil {
		return ConfigurationCI{}, fmt.Errorf("model: bootstrap base utility fit: %w", err)
	}
	base, err := Configure(pBase, uBase, obj)
	if err != nil {
		return ConfigurationCI{}, err
	}
	if !base.Feasible {
		return ConfigurationCI{}, fmt.Errorf("model: objectives infeasible at the point estimate; bootstrap CI undefined")
	}

	pRes := residuals(xs, privacy, pBase)
	uRes := residuals(xs, utility, uBase)
	var logValues []float64
	feasible := 0
	for it := 0; it < iters; it++ {
		bp := perturb(xs, privacy, pBase, pRes, r)
		bu := perturb(xs, utility, uBase, uRes, r)
		pFit, err1 := FitLogLinear(xs, bp, tolFrac)
		uFit, err2 := FitLogLinear(xs, bu, tolFrac)
		if err1 != nil || err2 != nil {
			continue
		}
		cfg, err := Configure(pFit, uFit, obj)
		if err != nil || !cfg.Feasible {
			continue
		}
		feasible++
		logValues = append(logValues, math.Log(cfg.Value))
	}
	out := ConfigurationCI{
		FeasibleFraction: float64(feasible) / float64(iters),
		Replicates:       iters,
	}
	if len(logValues) < 2 {
		return ConfigurationCI{}, fmt.Errorf("model: only %d feasible bootstrap replicates; increase repeats or relax objectives", len(logValues))
	}
	alpha := (1 - level) / 2
	out.Value = stat.CI{
		Point: base.Value,
		Lo:    math.Exp(stat.Quantile(logValues, alpha)),
		Hi:    math.Exp(stat.Quantile(logValues, 1-alpha)),
		Level: level,
	}
	return out, nil
}

// residuals returns observed − fitted inside the model's validity range
// (the active zone); outside it the curve is saturated and the log-linear
// model intentionally does not describe it.
func residuals(xs, ys []float64, m LogLinear) []float64 {
	var res []float64
	for i, x := range xs {
		if x < m.XMin || x > m.XMax {
			continue
		}
		res = append(res, ys[i]-m.Predict(x))
	}
	return res
}

// perturb rebuilds a series: inside the active zone, fitted value plus a
// resampled residual; outside it, the original (saturated) observation.
func perturb(xs, ys []float64, m LogLinear, res []float64, r *rng.Source) []float64 {
	out := make([]float64, len(ys))
	for i, x := range xs {
		if x < m.XMin || x > m.XMax || len(res) == 0 {
			out[i] = ys[i]
			continue
		}
		out[i] = m.Predict(x) + res[r.Intn(len(res))]
	}
	return out
}
