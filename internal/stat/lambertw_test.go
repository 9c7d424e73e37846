package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLambertWm1Identity(t *testing.T) {
	// W₋₁(x)·e^(W₋₁(x)) == x across the domain.
	for _, x := range []float64{-1 / math.E, -0.367, -0.3, -0.2, -0.1, -0.01, -1e-4, -1e-8, -1e-12} {
		w, err := LambertWm1(x)
		if err != nil {
			t.Fatalf("LambertWm1(%v): %v", x, err)
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
	w, err := LambertWm1(-1 / math.E)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(w, -1, 1e-9) {
		t.Errorf("W₋₁(−1/e) = %v, want −1", w)
	}
	// W₋₁(−0.1) ≈ −3.577152063957297 (reference value).
	w, err = LambertWm1(-0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(w, -3.577152063957297, 1e-10) {
		t.Errorf("W₋₁(−0.1) = %v", w)
	}
}

func TestLambertWm1Domain(t *testing.T) {
	for _, x := range []float64{0, 0.5, -0.4, -1} {
		if _, err := LambertWm1(x); err == nil {
			t.Errorf("LambertWm1(%v) should be out of domain", x)
		}
	}
}

func TestPlanarLaplaceQuantileCDFRoundTrip(t *testing.T) {
	f := func(pRaw uint16, eRaw uint8) bool {
		p := float64(pRaw) / 65536 // [0, 1)
		epsilon := math.Pow(10, -4+4*float64(eRaw)/256)
		r, err := PlanarLaplaceRadiusQuantile(epsilon, p)
		if err != nil {
			return false
		}
		back := PlanarLaplaceRadiusCDF(epsilon, r)
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
		r, err := PlanarLaplaceRadiusQuantile(epsilon, p)
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
	if _, err := PlanarLaplaceRadiusQuantile(0, 0.5); err == nil {
		t.Error("epsilon=0 should error")
	}
	if _, err := PlanarLaplaceRadiusQuantile(-1, 0.5); err == nil {
		t.Error("negative epsilon should error")
	}
	if _, err := PlanarLaplaceRadiusQuantile(0.01, 1); err == nil {
		t.Error("p=1 should error")
	}
	if _, err := PlanarLaplaceRadiusQuantile(0.01, -0.1); err == nil {
		t.Error("negative p should error")
	}
	if r, err := PlanarLaplaceRadiusQuantile(0.01, 0); err != nil || r != 0 {
		t.Errorf("p=0 should give radius 0, got %v, %v", r, err)
	}
}

func TestPlanarLaplaceCDFShape(t *testing.T) {
	const epsilon = 0.01
	if got := PlanarLaplaceRadiusCDF(epsilon, 0); got != 0 {
		t.Errorf("CDF(0) = %v", got)
	}
	if got := PlanarLaplaceRadiusCDF(epsilon, -5); got != 0 {
		t.Errorf("CDF(-5) = %v", got)
	}
	// CDF at the mean radius 2/ε is 1 − 3e⁻² ≈ 0.594.
	if got := PlanarLaplaceRadiusCDF(epsilon, 200); !almostEq(got, 1-3*math.Exp(-2), 1e-12) {
		t.Errorf("CDF(mean) = %v", got)
	}
	if got := PlanarLaplaceRadiusCDF(epsilon, 1e7); !almostEq(got, 1, 1e-9) {
		t.Errorf("CDF(huge) = %v, want ~1", got)
	}
}

// FuzzLambertWm1 checks, for any float64: out-of-domain inputs (NaN
// included) are errors; in-domain outputs lie on the branch (w ≤ −1),
// solve w·e^w = x to the residual TestLambertWm1BigReference bounds, and
// never rise when x rises by one part in 10¹² — a step far larger than
// the rounding error of w, so a wrong branch or a non-converged draw shows.
func FuzzLambertWm1(f *testing.F) {
	f.Fuzz(func(t *testing.T, x float64) {
		w, err := LambertWm1(x)
		if !(x >= -1/math.E-1e-15 && x < 0) {
			if err == nil {
				t.Fatalf("LambertWm1(%v) = %v, want a domain error", x, w)
			}
			return
		}
		if err != nil {
			t.Fatalf("LambertWm1(%v): %v", x, err)
		}
		if !(w <= -1) {
			t.Fatalf("LambertWm1(%v) = %v, want ≤ −1", x, w)
		}
		if x < -1/math.E { // the tolerated sliver below −1/e
			return
		}
		bound := 4e-15
		if x > -0x1p-53/math.E {
			bound = 0x1p-51 * math.Abs(w)
		}
		if res := bigResidual(x, w); res > bound {
			t.Fatalf("LambertWm1(%v) = %v: residual %.3g > %.3g", x, w, res, bound)
		}
		if x2 := x * (1 - 1e-12); x2 < 0 {
			if w2, err := LambertWm1(x2); err != nil || w2 > w {
				t.Fatalf("LambertWm1(%v) = %v but LambertWm1(%v) = %v, %v", x, w, x2, w2, err)
			}
		}
	})
}

func BenchmarkLambertWm1(b *testing.B) {
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = (float64(i)+0.5)/float64(len(xs)) - 1
		xs[i] /= math.E
	}
	var sink float64
	for i := 0; i < b.N; i++ {
		w, _ := LambertWm1(xs[i&1023])
		sink += w
	}
	_ = sink
}
