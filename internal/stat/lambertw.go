package stat

import (
	"fmt"
	"math"
)

// LambertWm1 evaluates the W₋₁ branch of the Lambert W function (the inverse
// of w·e^w on w ≤ −1) for x in [−1/e, 0). This is the exact inverse needed
// to sample the radial component of the planar Laplace distribution used by
// Geo-Indistinguishability: the CDF of the radius is
//
//	C_ε(r) = 1 − (1 + εr)·e^(−εr)
//
// whose inverse is r = −(1/ε)·(W₋₁((p−1)/e) + 1).
//
// The starting point is a truncated series, within 0.7% of W₋₁: for
// x < −0.2, the branch-point series in p = −√(2(1+e·x)) through p⁹;
// elsewhere, the asymptotic expansion in L₁ = ln(−x), L₂ = ln(−L₁) through
// its fourth correction. Exactly two Halley steps follow. Halley converges
// cubically, so two steps take either start to within an ulp or two, at a
// fixed cost per call: the relative residual |w·e^w − x|/|x| stays below
// 4e-15 wherever GEO-I draws x, x ∈ [−1/e, −2⁻⁵³/e].
func LambertWm1(x float64) (float64, error) {
	const negInvE = -1.0 / math.E
	if !(x >= negInvE-1e-15 && x < 0) { // also rejects NaN
		return 0, fmt.Errorf("stat: LambertWm1 domain is [-1/e, 0), got %v", x)
	}
	q := 1 + math.E*x
	if x <= negInvE || q <= 0 {
		return -1, nil
	}
	// For |x| < 2⁻⁹⁰⁰, x and e^w near the subnormal range, where they carry
	// fewer bits (and math.Log is inexact on amd64), so work with x·2¹²⁸
	// and e^(w + 128·ln 2); the Halley step is a ratio, unchanged by it.
	shift, xs := 0.0, x
	if x > -0x1p-900 {
		shift, xs = 128*math.Ln2, x*0x1p128
	}
	var w float64
	if x < -0.2 {
		p := -math.Sqrt(2 * q)
		w = branchSeries[len(branchSeries)-1]
		for k := len(branchSeries) - 2; k >= 0; k-- {
			w = w*p + branchSeries[k]
		}
	} else {
		l1 := math.Log(-xs) - shift
		l2 := math.Log(-l1)
		// Horner in 1/L₁ over Horner in L₂; no P_n has a constant term,
		// so L₂ factors out.
		a := &asymptoticSeries
		inv := 1 / l1
		t := (((a[3][4]*l2+a[3][3])*l2+a[3][2])*l2 + a[3][1]) * inv
		t = (t + ((a[2][3]*l2+a[2][2])*l2 + a[2][1])) * inv
		t = (t + (a[1][2]*l2 + a[1][1])) * inv
		t = (t + a[0][1]) * inv
		w = l1 - l2 + t*l2
	}
	// Halley steps on f(w) = w·e^w − x, written without dividing by w+1.
	for range 2 {
		ew := math.Exp(w + shift)
		f := w*ew - xs
		wp1 := w + 1
		w -= 2 * wp1 * f / (2*ew*wp1*wp1 - (w+2)*f)
	}
	// Within a few ulps of −1/e, f is rounding noise as large as the true
	// w+1, and a step can land just past the branch point.
	return min(w, -1), nil
}

// branchSeries[k] is the coefficient of p^k in W₋₁(x) = Σ branchSeries[k]·p^k
// with p = −√(2(1+e·x)), the expansion about the branch point −1/e.
var branchSeries = [...]float64{
	-1, 1, -1.0 / 3, 11.0 / 72, -43.0 / 540, 769.0 / 17280, -221.0 / 8505,
	680863.0 / 43545600, -1963.0 / 204120, 226287557.0 / 37623398400,
}

// asymptoticSeries[n-1][m] is the coefficient of L₂^m/L₁^n in
// W₋₁(x) = L₁ − L₂ + Σ_n Σ_m asymptoticSeries[n-1][m]·L₂^m/L₁^n, the
// expansion as x → 0⁻ with L₁ = ln(−x), L₂ = ln(−L₁). It is
// (−1)^(n−m)·[n, n−m+1]/m!, with [·,·] the unsigned Stirling numbers of
// the first kind.
var asymptoticSeries = [4][5]float64{
	{0, 1},
	{0, -1, 1.0 / 2},
	{0, 1, -3.0 / 2, 1.0 / 3},
	{0, -1, 3, -11.0 / 6, 1.0 / 4},
}

// PlanarLaplaceRadiusQuantile returns the radius r such that a planar
// Laplace distribution with parameter epsilon (meters⁻¹) places probability
// p inside the disc of radius r. In other words it is C_ε⁻¹(p), the inverse
// CDF used both for exact noise sampling and for analytic accuracy bounds.
func PlanarLaplaceRadiusQuantile(epsilon, p float64) (float64, error) {
	if epsilon <= 0 {
		return 0, fmt.Errorf("stat: epsilon must be positive, got %v", epsilon)
	}
	if p < 0 || p >= 1 {
		return 0, fmt.Errorf("stat: probability must be in [0, 1), got %v", p)
	}
	if p == 0 {
		return 0, nil
	}
	w, err := LambertWm1((p - 1) / math.E)
	if err != nil {
		return 0, fmt.Errorf("stat: radius quantile: %w", err)
	}
	return -(w + 1) / epsilon, nil
}

// PlanarLaplaceRadiusCDF returns C_ε(r) = 1 − (1+εr)·e^(−εr), the
// probability that planar Laplace noise of parameter epsilon lands within
// distance r of the true location.
func PlanarLaplaceRadiusCDF(epsilon, r float64) float64 {
	if r <= 0 {
		return 0
	}
	er := epsilon * r
	return 1 - (1+er)*math.Exp(-er)
}
