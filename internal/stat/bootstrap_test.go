package stat

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestResamplePreservesLengthAndSupport(t *testing.T) {
	r := rng.New(1)
	xs := []float64{1, 2, 3, 4, 5}
	support := map[float64]bool{1: true, 2: true, 3: true, 4: true, 5: true}
	for trial := 0; trial < 50; trial++ {
		rs := Resample(r, xs)
		if len(rs) != len(xs) {
			t.Fatalf("resample length %d, want %d", len(rs), len(xs))
		}
		for _, v := range rs {
			if !support[v] {
				t.Fatalf("resample produced %v, not in original sample", v)
			}
		}
	}
}

func TestBootstrapMeanCoversTruth(t *testing.T) {
	r := rng.New(7)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 10 + r.NormFloat64()
	}
	ci, err := Bootstrap(rng.New(8), xs, Mean, 500, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !ci.Contains(Mean(xs)) {
		t.Errorf("CI %v does not contain the point estimate %v", ci, Mean(xs))
	}
	if !ci.Contains(10) {
		t.Errorf("CI %v does not contain the true mean 10 (flaky only if the sampler broke)", ci)
	}
	if ci.Width() <= 0 || ci.Width() > 1 {
		t.Errorf("CI width %v implausible for n=200, σ=1", ci.Width())
	}
}

func TestBootstrapErrors(t *testing.T) {
	r := rng.New(1)
	if _, err := Bootstrap(r, nil, Mean, 100, 0.95); err == nil {
		t.Error("want error for empty sample")
	}
	if _, err := Bootstrap(r, []float64{1, 2}, Mean, 1, 0.95); err == nil {
		t.Error("want error for too few iterations")
	}
	if _, err := Bootstrap(r, []float64{1, 2}, Mean, 100, 1.5); err == nil {
		t.Error("want error for level outside (0,1)")
	}
}

func TestBootstrapConstantSampleDegenerateCI(t *testing.T) {
	xs := []float64{3, 3, 3, 3}
	ci, err := Bootstrap(rng.New(2), xs, Mean, 100, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Lo != 3 || ci.Hi != 3 || ci.Point != 3 {
		t.Errorf("constant sample should give degenerate CI at 3, got %v", ci)
	}
}

// pairedBootstrapCoverage fits PairedBootstrapLinear at the given level to
// `trials` independent samples of y = 2 + 3x + N(0, 0.1²) and returns the
// fraction of intercept and slope intervals that contain the true values.
func pairedBootstrapCoverage(t *testing.T, trials int, level float64) (icept, slope float64) {
	t.Helper()
	const n = 100
	xs := make([]float64, n)
	ys := make([]float64, n)
	root := rng.New(11)
	var hitI, hitS int
	for trial := 0; trial < trials; trial++ {
		r := root.Split(int64(trial))
		for i := range xs {
			xs[i] = float64(i) / 10
			ys[i] = 2 + 3*xs[i] + 0.1*r.NormFloat64()
		}
		ci, cs, err := PairedBootstrapLinear(r, xs, ys, 300, level)
		if err != nil {
			t.Fatal(err)
		}
		if cs.Width() > 0.2 {
			t.Fatalf("trial %d: slope CI suspiciously wide: %v", trial, cs)
		}
		if ci.Contains(2) {
			hitI++
		}
		if cs.Contains(3) {
			hitS++
		}
	}
	return float64(hitI) / float64(trials), float64(hitS) / float64(trials)
}

// TestPairedBootstrapLinearRecoversLine checks what a 95% interval
// promises: over 400 independent samples, about 95% of the intervals
// contain the true line. The percentile bootstrap under-covers a little at
// n = 100 (0.936 for both coefficients over 4,000 samples), and the rate's
// standard deviation at 400 samples is 1.2 points, so [0.90, 0.98] holds a
// sound interval three deviations from either edge. Intervals built at
// level 0.5 must fall outside it, which shows the check can fail.
func TestPairedBootstrapLinearRecoversLine(t *testing.T) {
	const trials = 400
	inBand := func(rate float64) bool { return rate >= 0.90 && rate <= 0.98 }
	icept, slope := pairedBootstrapCoverage(t, trials, 0.95)
	t.Logf("95%% coverage over %d samples: intercept %.4f, slope %.4f", trials, icept, slope)
	if !inBand(icept) || !inBand(slope) {
		t.Errorf("95%% interval coverage: intercept %.4f, slope %.4f, want both in [0.90, 0.98]", icept, slope)
	}
	icept, slope = pairedBootstrapCoverage(t, trials, 0.5)
	t.Logf("50%% coverage over %d samples: intercept %.4f, slope %.4f", trials, icept, slope)
	if inBand(icept) || inBand(slope) {
		t.Errorf("50%% intervals pass the 95%% coverage check: intercept %.4f, slope %.4f", icept, slope)
	}
}

func TestPairedBootstrapLinearErrors(t *testing.T) {
	r := rng.New(1)
	if _, _, err := PairedBootstrapLinear(r, []float64{1}, []float64{1, 2}, 10, 0.9); err == nil {
		t.Error("want error for mismatched lengths")
	}
	if _, _, err := PairedBootstrapLinear(r, []float64{1, 1, 1}, []float64{1, 2, 3}, 10, 0.9); err == nil {
		t.Error("want error for degenerate x")
	}
	if _, _, err := PairedBootstrapLinear(r, []float64{1, 2, 3}, []float64{1, 2, 3}, 1, 0.9); err == nil {
		t.Error("want error for too few iterations")
	}
	if _, _, err := PairedBootstrapLinear(r, []float64{1, 2, 3}, []float64{1, 2, 3}, 10, 0); err == nil {
		t.Error("want error for bad level")
	}
}

func TestBootstrapCIOrderProperty(t *testing.T) {
	// Property: for any sample, Lo ≤ Point' bootstrap quantiles are
	// ordered (Lo ≤ Hi) and the point estimate is the plain statistic.
	f := func(seed int64, raw []uint8) bool {
		if len(raw) < 3 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, b := range raw {
			xs[i] = float64(b)
		}
		ci, err := Bootstrap(rng.New(seed), xs, Median, 50, 0.9)
		if err != nil {
			return false
		}
		return ci.Lo <= ci.Hi && ci.Point == Median(xs) && !math.IsNaN(ci.Lo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
