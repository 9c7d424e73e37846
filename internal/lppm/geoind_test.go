package lppm

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/stat"
)

func TestGeoIProtectPreservesStructure(t *testing.T) {
	tr := mkTrace(t, "u", 50)
	g := NewGeoIndistinguishability()
	out, err := g.Protect(tr, Params{EpsilonParam: 0.01}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != tr.Len() || out.User != tr.User {
		t.Fatalf("protect changed shape: %d records user %s", out.Len(), out.User)
	}
	for i := range out.Records {
		if !out.Records[i].Time.Equal(tr.Records[i].Time) {
			t.Fatal("protect must not change timestamps")
		}
		if out.Records[i].Point == tr.Records[i].Point {
			t.Errorf("record %d not perturbed", i)
		}
	}
	// Input must be untouched.
	if tr.Records[0].Point != basePt {
		t.Error("protect mutated its input")
	}
}

func TestGeoIMeanDisplacementMatchesTheory(t *testing.T) {
	tr := mkTrace(t, "u", 2000)
	g := NewGeoIndistinguishability()
	for _, eps := range []float64{0.005, 0.01, 0.1} {
		out, err := g.Protect(tr, Params{EpsilonParam: eps}, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i := range out.Records {
			sum += geo.Equirectangular(tr.Records[i].Point, out.Records[i].Point)
		}
		mean := sum / float64(out.Len())
		want := stat.PlanarLaplaceMeanRadius(eps)
		if math.Abs(mean-want) > want*0.1 {
			t.Errorf("eps=%v: mean displacement %v, want ~%v", eps, mean, want)
		}
	}
}

func TestGeoIEpsilonValidation(t *testing.T) {
	tr := mkTrace(t, "u", 3)
	g := NewGeoIndistinguishability()
	for _, eps := range []float64{0, -1, 2, 1e-5} {
		if _, err := g.Protect(tr, Params{EpsilonParam: eps}, rng.New(1)); err == nil {
			t.Errorf("epsilon %v should be rejected", eps)
		}
	}
	if _, err := g.Protect(tr, Params{}, rng.New(1)); err == nil {
		t.Error("missing epsilon should be rejected")
	}
}

func TestGeoIParamSpec(t *testing.T) {
	g := NewGeoIndistinguishability()
	specs := g.Params()
	if len(specs) != 1 {
		t.Fatalf("GEO-I should expose exactly one parameter, got %d", len(specs))
	}
	s := specs[0]
	if s.Name != EpsilonParam || !s.LogScale || s.Min != 1e-4 || s.Max != 1 {
		t.Errorf("spec = %+v", s)
	}
	if g.Name() != "geoi" {
		t.Errorf("Name = %q", g.Name())
	}
}

// TestGeoIIndistinguishabilityProperty empirically verifies the ε·d-privacy
// guarantee on a discretized domain: for two nearby locations x1, x2 and any
// reported cell S, P[S|x1] ≤ e^(ε·d(x1,x2)) · P[S|x2].
func TestGeoIIndistinguishabilityProperty(t *testing.T) {
	const (
		eps    = 0.02
		trials = 120000
		cell   = 250.0 // coarse observation cells
	)
	x1 := basePt
	x2 := basePt.Offset(100, 0) // d = 100 m
	grid := geo.NewGrid(basePt, cell)

	counts1 := make(map[geo.Cell]int)
	counts2 := make(map[geo.Cell]int)
	r := rng.New(99)
	for i := 0; i < trials; i++ {
		e, n := stat.SamplePlanarLaplace(r, eps)
		counts1[grid.CellOf(x1.Offset(e, n))]++
		e, n = stat.SamplePlanarLaplace(r, eps)
		counts2[grid.CellOf(x2.Offset(e, n))]++
	}
	bound := math.Exp(eps * 100) // e^(ε·d) ≈ 7.39
	for c, n1 := range counts1 {
		n2 := counts2[c]
		if n1 < 200 || n2 < 200 {
			continue // skip cells with too little mass for a stable ratio
		}
		ratio := float64(n1) / float64(n2)
		if ratio > bound*1.25 || 1/ratio > bound*1.25 {
			t.Errorf("cell %v: likelihood ratio %v exceeds e^(εd)=%v", c, ratio, bound)
		}
	}
}

// BenchmarkGeoIProtect prices the mechanism per record: one planar-Laplace
// draw (a uniform angle and a Gamma(2) radius) and the offset.
func BenchmarkGeoIProtect(b *testing.B) {
	tr := mkTrace(b, "u", 1000)
	g := NewGeoIndistinguishability()
	p := Params{EpsilonParam: 0.01}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Protect(tr, p, r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tr.Len()), "ns/rec")
}
