package stat

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// lambertWm1 evaluates the W₋₁ branch of the Lambert W function (the inverse
// of w·e^w on w ≤ −1) for x in [−1/e, 0). It is a test oracle, not a
// sampler: Halley steps from a two-term start until they stop moving, with
// no regard for cost.
func lambertWm1(x float64) (float64, error) {
	const negInvE = -1.0 / math.E
	if !(x >= negInvE-1e-15 && x < 0) { // also rejects NaN
		return 0, fmt.Errorf("stat: lambertWm1 domain is [-1/e, 0), got %v", x)
	}
	q := 1 + math.E*x
	if x <= negInvE || q <= 0 {
		return -1, nil
	}
	var w float64
	if x < -0.25 { // branch-point series in p = −√(2(1+e·x))
		p := -math.Sqrt(2 * q)
		w = -1 + p - p*p/3
	} else { // asymptotic expansion as x → 0⁻
		l1 := math.Log(-x)
		w = l1 - math.Log(-l1)
	}
	for range 100 {
		ew := math.Exp(w)
		f := w*ew - x
		wp1 := w + 1
		next := w - 2*wp1*f/(2*ew*wp1*wp1-(w+2)*f)
		if next == w || math.IsNaN(next) {
			break
		}
		w = next
	}
	return min(w, -1), nil
}

// planarLaplaceRadiusQuantile returns C_ε⁻¹(p) = −(W₋₁((p−1)/e) + 1)/ε, the
// radius inside which planar Laplace noise of parameter epsilon lands with
// probability p. It inverts the CDF independently of how the sampler draws
// its radius, so the sampler can be checked against it.
func planarLaplaceRadiusQuantile(epsilon, p float64) (float64, error) {
	if epsilon <= 0 {
		return 0, fmt.Errorf("stat: epsilon must be positive, got %v", epsilon)
	}
	if p < 0 || p >= 1 {
		return 0, fmt.Errorf("stat: probability must be in [0, 1), got %v", p)
	}
	if p == 0 {
		return 0, nil
	}
	w, err := lambertWm1((p - 1) / math.E)
	if err != nil {
		return 0, fmt.Errorf("stat: radius quantile: %w", err)
	}
	return -(w + 1) / epsilon, nil
}

func TestLambertWm1Identity(t *testing.T) {
	// W₋₁(x)·e^(W₋₁(x)) == x across the domain.
	for _, x := range []float64{-1 / math.E, -0.367, -0.3, -0.2, -0.1, -0.01, -1e-4, -1e-8, -1e-12} {
		w, err := lambertWm1(x)
		if err != nil {
			t.Fatalf("lambertWm1(%v): %v", x, err)
		}
		got := w * math.Exp(w)
		if math.Abs(got-x) > math.Abs(x)*1e-10+1e-300 {
			t.Errorf("W(%v)=%v: w·e^w = %v", x, w, got)
		}
		if w > -1+1e-9 {
			t.Errorf("W₋₁ must be ≤ −1, got %v for x=%v", w, x)
		}
	}
}

func TestLambertWm1KnownValues(t *testing.T) {
	// W₋₁(−1/e) = −1 exactly.
	w, err := lambertWm1(-1 / math.E)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(w, -1, 1e-9) {
		t.Errorf("W₋₁(−1/e) = %v, want −1", w)
	}
	// W₋₁(−0.1) ≈ −3.577152063957297 (reference value).
	w, err = lambertWm1(-0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(w, -3.577152063957297, 1e-10) {
		t.Errorf("W₋₁(−0.1) = %v", w)
	}
}

func TestLambertWm1Domain(t *testing.T) {
	for _, x := range []float64{0, 0.5, -0.4, -1, math.NaN()} {
		if _, err := lambertWm1(x); err == nil {
			t.Errorf("lambertWm1(%v) should be out of domain", x)
		}
	}
}

func TestPlanarLaplaceQuantileCDFRoundTrip(t *testing.T) {
	f := func(pRaw uint16, eRaw uint8) bool {
		p := float64(pRaw) / 65536 // [0, 1)
		epsilon := math.Pow(10, -4+4*float64(eRaw)/256)
		r, err := planarLaplaceRadiusQuantile(epsilon, p)
		if err != nil {
			return false
		}
		back := planarLaplaceRadiusCDF(epsilon, r)
		return math.Abs(back-p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlanarLaplaceQuantileMonotone(t *testing.T) {
	const epsilon = 0.01
	prev := -1.0
	for p := 0.0; p < 0.999; p += 0.01 {
		r, err := planarLaplaceRadiusQuantile(epsilon, p)
		if err != nil {
			t.Fatal(err)
		}
		if r <= prev {
			t.Fatalf("quantile not strictly increasing at p=%v: %v <= %v", p, r, prev)
		}
		prev = r
	}
}

func TestPlanarLaplaceQuantileErrors(t *testing.T) {
	if _, err := planarLaplaceRadiusQuantile(0, 0.5); err == nil {
		t.Error("epsilon=0 should error")
	}
	if _, err := planarLaplaceRadiusQuantile(-1, 0.5); err == nil {
		t.Error("negative epsilon should error")
	}
	if _, err := planarLaplaceRadiusQuantile(0.01, 1); err == nil {
		t.Error("p=1 should error")
	}
	if _, err := planarLaplaceRadiusQuantile(0.01, -0.1); err == nil {
		t.Error("negative p should error")
	}
	if r, err := planarLaplaceRadiusQuantile(0.01, 0); err != nil || r != 0 {
		t.Errorf("p=0 should give radius 0, got %v, %v", r, err)
	}
}
