package stat

import (
	"math"

	"repro/internal/rng"
)

// SampleLaplace1D draws from the one-dimensional Laplace distribution with
// location 0 and scale b, by inverse-CDF sampling.
func SampleLaplace1D(r *rng.Source, b float64) float64 {
	u := r.Float64() - 0.5
	if u >= 0 {
		return -b * math.Log(1-2*u)
	}
	return b * math.Log(1+2*u)
}

// SamplePlanarLaplace draws a noise vector (east, north) in meters from the
// planar (polar) Laplace distribution with parameter epsilon in meters⁻¹,
// the noise distribution of Geo-Indistinguishability (Andrés et al., CCS'13,
// Algorithm "planar Laplacian"): the angle is uniform and the radius has
// density ε²r·e^(−εr), which is Gamma(2, 1/ε). The radius is drawn exactly
// as the sum of two exponentials, −ln(U₁·U₂)/ε, with each Uᵢ = 1 − Float64()
// in (0, 1] so the product never reaches 0: three uniforms and one log.
func SamplePlanarLaplace(r *rng.Source, epsilon float64) (east, north float64) {
	theta := r.Float64() * 2 * math.Pi
	u1, u2 := 1-r.Float64(), 1-r.Float64()
	radius := -math.Log(u1*u2) / epsilon
	sin, cos := math.Sincos(theta)
	return radius * cos, radius * sin
}

// PlanarLaplaceMeanRadius returns the expected displacement E[r] = 2/ε of
// planar Laplace noise with parameter epsilon.
func PlanarLaplaceMeanRadius(epsilon float64) float64 { return 2 / epsilon }

// SampleGaussian2D draws an isotropic Gaussian noise vector with the given
// standard deviation per axis, in meters.
func SampleGaussian2D(r *rng.Source, sigma float64) (east, north float64) {
	return r.NormFloat64() * sigma, r.NormFloat64() * sigma
}

// SampleExponential draws from the exponential distribution with the given
// mean.
func SampleExponential(r *rng.Source, mean float64) float64 {
	return r.ExpFloat64() * mean
}

// SampleUniformRange draws uniformly from [lo, hi].
func SampleUniformRange(r *rng.Source, lo, hi float64) float64 {
	return lo + r.Float64()*(hi-lo)
}

// SampleTruncGaussian draws from a Gaussian with the given mean and standard
// deviation, rejected into [lo, hi]. After 64 rejections it clamps, which
// only matters for pathological bounds.
func SampleTruncGaussian(r *rng.Source, mean, sigma, lo, hi float64) float64 {
	for i := 0; i < 64; i++ {
		v := mean + r.NormFloat64()*sigma
		if v >= lo && v <= hi {
			return v
		}
	}
	return Clamp(mean, lo, hi)
}
