// Package dist provides scalar probability functions for the normal
// distribution used throughout the silicon model and the statistics layer.
//
// The silicon model converts a delay difference Δ and a noise level σ into a
// response-1 probability p = Φ(Δ/σ); stability analysis needs Φ deep in the
// tails (|z| up to ~6), so it is computed via math.Erfc with full
// double-precision tail accuracy.
package dist

import "math"

// NormalCDF returns Φ(z), the standard normal cumulative distribution
// function, accurate to full double precision including the far tails.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalPDF returns the standard normal density at z.
func NormalPDF(z float64) float64 {
	return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
}

// AllAgreeProbability returns the probability that n independent
// Bernoulli(p) samples all agree (all 1 or all 0): p^n + (1-p)^n, computed
// in log space to survive the n = 100,000 counter depth.
func AllAgreeProbability(n int, p float64) float64 {
	if p <= 0 || p >= 1 {
		return 1
	}
	// Log1p keeps full precision when p is within a few ulps of 0 or 1,
	// which is exactly where stable challenges live.
	a := math.Exp(float64(n) * math.Log1p(p-1))
	b := math.Exp(float64(n) * math.Log1p(-p))
	return a + b
}
