package model

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stat"
)

// noisySweep builds a Figure-1-like pair of series with controlled
// measurement noise.
func noisySweep(noise float64, seed int64) (xs, prs, uts []float64) {
	r := rng.New(seed)
	xs = stat.LogSpace(1e-4, 1, 25)
	prs = make([]float64, len(xs))
	uts = make([]float64, len(xs))
	// Constants chosen so the objectives Pr ≤ 0.10, Ut ≥ 0.80 leave a
	// comfortable feasible window x ∈ [0.0067, 0.0155].
	for i, x := range xs {
		pr := 0.6 + 0.12*math.Log(x)
		ut := 1.3 + 0.1*math.Log(x)
		prs[i] = stat.Clamp(pr+noise*r.NormFloat64(), 0, 1)
		uts[i] = stat.Clamp(ut+noise*r.NormFloat64(), 0, 1)
	}
	return xs, prs, uts
}

func TestBootstrapConfigureBasics(t *testing.T) {
	xs, prs, uts := noisySweep(0.01, 1)
	obj := Objectives{MaxPrivacy: 0.10, MinUtility: 0.80}
	ci, err := BootstrapConfigure(rng.New(2), xs, prs, uts, 0.05, obj, 200, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Value.Lo > ci.Value.Point || ci.Value.Point > ci.Value.Hi {
		t.Errorf("point %v outside CI [%v, %v]", ci.Value.Point, ci.Value.Lo, ci.Value.Hi)
	}
	if ci.FeasibleFraction < 0.8 {
		t.Errorf("feasible fraction = %v under mild noise, want ≥ 0.8", ci.FeasibleFraction)
	}
	if ci.Replicates != 200 {
		t.Errorf("replicates = %d, want 200", ci.Replicates)
	}
}

func TestBootstrapConfigureWidensWithNoise(t *testing.T) {
	obj := Objectives{MaxPrivacy: 0.10, MinUtility: 0.80}
	width := func(noise float64) float64 {
		xs, prs, uts := noisySweep(noise, 3)
		ci, err := BootstrapConfigure(rng.New(4), xs, prs, uts, 0.05, obj, 300, 0.9)
		if err != nil {
			t.Fatalf("noise %v: %v", noise, err)
		}
		return math.Log(ci.Value.Hi) - math.Log(ci.Value.Lo)
	}
	if quiet, loud := width(0.005), width(0.04); loud <= quiet {
		t.Errorf("CI width should grow with noise: %.4f (σ=0.005) vs %.4f (σ=0.04)", quiet, loud)
	}
}

func TestBootstrapConfigureErrors(t *testing.T) {
	xs, prs, uts := noisySweep(0.01, 5)
	obj := Objectives{MaxPrivacy: 0.10, MinUtility: 0.80}
	if _, err := BootstrapConfigure(rng.New(1), xs, prs, uts, 0.05, obj, 1, 0.9); err == nil {
		t.Error("too few iterations should fail")
	}
	if _, err := BootstrapConfigure(rng.New(1), xs, prs, uts, 0.05, obj, 100, 1.5); err == nil {
		t.Error("bad level should fail")
	}
	// Impossible objectives: infeasible at the point estimate.
	bad := Objectives{MaxPrivacy: 0.0001, MinUtility: 0.9999}
	if _, err := BootstrapConfigure(rng.New(1), xs, prs, uts, 0.05, bad, 100, 0.9); err == nil {
		t.Error("infeasible objectives should fail")
	}
	// Flat series: base fit fails.
	flat := make([]float64, len(xs))
	if _, err := BootstrapConfigure(rng.New(1), xs, flat, uts, 0.05, obj, 100, 0.9); err == nil {
		t.Error("flat privacy series should fail")
	}
}
