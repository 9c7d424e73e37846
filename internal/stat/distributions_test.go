package stat

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

func TestSampleLaplace1DMoments(t *testing.T) {
	r := rng.New(11)
	const n = 200000
	const b = 3.0
	var sum, sumAbs float64
	for i := 0; i < n; i++ {
		v := SampleLaplace1D(r, b)
		sum += v
		sumAbs += math.Abs(v)
	}
	if mean := sum / n; math.Abs(mean) > 0.05 {
		t.Errorf("Laplace mean = %v, want ~0", mean)
	}
	// E|X| = b for Laplace(0, b).
	if meanAbs := sumAbs / n; math.Abs(meanAbs-b) > 0.05 {
		t.Errorf("Laplace E|X| = %v, want %v", meanAbs, b)
	}
}

// planarLaplaceRadiusCDF returns C_ε(r) = 1 − (1+εr)·e^(−εr), the
// probability that planar Laplace noise of parameter epsilon lands within
// distance r of the true location: the oracle the sampler is held to.
func planarLaplaceRadiusCDF(epsilon, r float64) float64 {
	if r <= 0 {
		return 0
	}
	er := epsilon * r
	return 1 - (1+er)*math.Exp(-er)
}

func TestPlanarLaplaceCDFShape(t *testing.T) {
	const epsilon = 0.01
	if got := planarLaplaceRadiusCDF(epsilon, 0); got != 0 {
		t.Errorf("CDF(0) = %v", got)
	}
	if got := planarLaplaceRadiusCDF(epsilon, -5); got != 0 {
		t.Errorf("CDF(-5) = %v", got)
	}
	// CDF at the mean radius 2/ε is 1 − 3e⁻² ≈ 0.594.
	if got := planarLaplaceRadiusCDF(epsilon, 200); !almostEq(got, 1-3*math.Exp(-2), 1e-12) {
		t.Errorf("CDF(mean) = %v", got)
	}
	if got := planarLaplaceRadiusCDF(epsilon, 1e7); !almostEq(got, 1, 1e-9) {
		t.Errorf("CDF(huge) = %v, want ~1", got)
	}
}

func TestSamplePlanarLaplaceRadiusDistribution(t *testing.T) {
	r := rng.New(13)
	const n = 100000
	const epsilon = 0.01
	var sumR float64
	within := 0
	radii := make([]float64, n)
	for i := range radii {
		e, nn := SamplePlanarLaplace(r, epsilon)
		radius := math.Hypot(e, nn)
		radii[i] = radius
		sumR += radius
		if radius <= 200 {
			within++
		}
	}
	// E[r] = 2/ε = 200 m.
	if mean := sumR / n; math.Abs(mean-200) > 3 {
		t.Errorf("mean radius = %v, want ~200", mean)
	}
	want := planarLaplaceRadiusCDF(epsilon, 200)
	if frac := float64(within) / n; math.Abs(frac-want) > 0.01 {
		t.Errorf("fraction within the mean radius = %v, want ~%v", frac, want)
	}
	// The share of radii inside each decile radius of the inverse CDF is
	// binomial with mean p; allow five standard deviations.
	sort.Float64s(radii)
	for p := 0.1; p < 0.95; p += 0.1 {
		q, err := planarLaplaceRadiusQuantile(epsilon, p)
		if err != nil {
			t.Fatal(err)
		}
		frac := float64(sort.SearchFloat64s(radii, q)) / n
		if tol := 5 * math.Sqrt(p*(1-p)/n); math.Abs(frac-p) > tol {
			t.Errorf("share inside the %.1f quantile radius %.2f m = %.5f, want %.1f ± %.5f", p, q, frac, p, tol)
		}
	}
}

// TestSamplePlanarLaplaceRadiusKS holds the sampled radius to the planar
// Laplace CDF with a Kolmogorov–Smirnov test across the GEO-I sweep range.
// At n = 200,000 the 1% critical value of D is 1.628/√n ≈ 0.00364.
func TestSamplePlanarLaplaceRadiusKS(t *testing.T) {
	const n = 200000
	crit := 1.628 / math.Sqrt(n)
	radii := make([]float64, n)
	for i, epsilon := range []float64{1e-4, 1e-2, 1} {
		r := rng.New(int64(41 + i))
		for j := range radii {
			e, nn := SamplePlanarLaplace(r, epsilon)
			radii[j] = math.Hypot(e, nn)
		}
		sort.Float64s(radii)
		var d float64
		for j, x := range radii {
			f := planarLaplaceRadiusCDF(epsilon, x)
			d = math.Max(d, math.Max(float64(j+1)/n-f, f-float64(j)/n))
		}
		t.Logf("ε = %g: D = %.5f (1%% critical value %.5f)", epsilon, d, crit)
		if d >= crit {
			t.Errorf("ε = %g: KS statistic D = %.5f ≥ %.5f", epsilon, d, crit)
		}
	}
}

func TestSamplePlanarLaplaceIsotropic(t *testing.T) {
	r := rng.New(17)
	const n = 50000
	quadrants := make([]int, 4)
	for i := 0; i < n; i++ {
		e, nn := SamplePlanarLaplace(r, 0.05)
		q := 0
		if e < 0 {
			q |= 1
		}
		if nn < 0 {
			q |= 2
		}
		quadrants[q]++
	}
	for q, c := range quadrants {
		frac := float64(c) / n
		if math.Abs(frac-0.25) > 0.01 {
			t.Errorf("quadrant %d fraction = %v, want ~0.25", q, frac)
		}
	}
}

func TestPlanarLaplaceMeanRadius(t *testing.T) {
	if got := PlanarLaplaceMeanRadius(0.01); got != 200 {
		t.Errorf("mean radius = %v, want 200", got)
	}
	if got := PlanarLaplaceMeanRadius(0.1); !almostEq(got, 20, 1e-12) {
		t.Errorf("mean radius = %v, want 20", got)
	}
}

func TestSampleGaussian2DMoments(t *testing.T) {
	r := rng.New(19)
	const n = 100000
	const sigma = 50.0
	var sumE, sumN, sumE2 float64
	for i := 0; i < n; i++ {
		e, nn := SampleGaussian2D(r, sigma)
		sumE += e
		sumN += nn
		sumE2 += e * e
	}
	if m := sumE / n; math.Abs(m) > 1 {
		t.Errorf("east mean = %v", m)
	}
	if m := sumN / n; math.Abs(m) > 1 {
		t.Errorf("north mean = %v", m)
	}
	if sd := math.Sqrt(sumE2 / n); math.Abs(sd-sigma) > 1 {
		t.Errorf("east std = %v, want %v", sd, sigma)
	}
}

func TestSampleExponentialMean(t *testing.T) {
	r := rng.New(23)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		v := SampleExponential(r, 42)
		if v < 0 {
			t.Fatal("exponential sample must be non-negative")
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-42) > 1 {
		t.Errorf("exponential mean = %v, want ~42", mean)
	}
}

func TestSampleUniformRange(t *testing.T) {
	r := rng.New(29)
	for i := 0; i < 1000; i++ {
		v := SampleUniformRange(r, -3, 7)
		if v < -3 || v > 7 {
			t.Fatalf("uniform sample %v outside [-3, 7]", v)
		}
	}
}

func TestSampleTruncGaussian(t *testing.T) {
	r := rng.New(31)
	for i := 0; i < 1000; i++ {
		v := SampleTruncGaussian(r, 10, 5, 8, 12)
		if v < 8 || v > 12 {
			t.Fatalf("truncated sample %v outside [8, 12]", v)
		}
	}
	// Impossible bounds fall back to clamping the mean.
	v := SampleTruncGaussian(r, 0, 0.001, 100, 200)
	if v != 100 {
		t.Errorf("degenerate truncation = %v, want clamp to 100", v)
	}
}
