package lppm

import (
	"repro/internal/rng"
	"repro/internal/stat"
	"repro/internal/trace"
)

// EpsilonParam is the name of GEO-I's single configuration parameter, the ε
// of ε·d-privacy, expressed in meters⁻¹. Lower ε means more noise: the
// expected displacement of a reported location is 2/ε meters.
const EpsilonParam = "epsilon"

// GeoIndistinguishability is the LPPM of Andrés et al. (CCS'13) analyzed by
// the paper: it perturbs every location independently with noise drawn from
// the planar Laplace distribution, achieving ε-geo-indistinguishability —
// the differential-privacy analogue for location data. Sampling is exact,
// not a Gaussian approximation: a uniform angle and a Gamma(2, 1/ε) radius
// drawn as the sum of two exponentials (stat.SamplePlanarLaplace), three
// uniforms per record.
type GeoIndistinguishability struct {
	spec ParamSpec
}

// NewGeoIndistinguishability returns the mechanism with the paper's sweep
// range ε ∈ [10⁻⁴, 10⁰] m⁻¹ (Figure 1's x axis).
func NewGeoIndistinguishability() *GeoIndistinguishability {
	return &GeoIndistinguishability{
		spec: ParamSpec{
			Name:     EpsilonParam,
			Unit:     "1/m",
			Min:      1e-4,
			Max:      1,
			Default:  0.01,
			LogScale: true,
		},
	}
}

// Name implements Mechanism.
func (g *GeoIndistinguishability) Name() string { return "geoi" }

// Params implements Mechanism.
func (g *GeoIndistinguishability) Params() []ParamSpec { return []ParamSpec{g.spec} }

// Protect implements Mechanism: each record's location is displaced by an
// independent planar-Laplace draw; timestamps and user identity are
// untouched.
func (g *GeoIndistinguishability) Protect(t *trace.Trace, p Params, r *rng.Source) (*trace.Trace, error) {
	eps, err := p.Get(EpsilonParam)
	if err != nil {
		return nil, err
	}
	if err := g.spec.Validate(eps); err != nil {
		return nil, err
	}
	out := t.Clone()
	for i := range out.Records {
		east, north := stat.SamplePlanarLaplace(r, eps)
		out.Records[i].Point = out.Records[i].Point.Offset(east, north)
	}
	return out, nil
}
