// Package dist provides scalar probability functions for the normal
// distribution used throughout the silicon model and the statistics layer.
//
// The silicon model converts a delay difference Δ and a noise level σ into a
// response-1 probability p = Φ(Δ/σ); stability analysis needs Φ and its
// inverse deep in the tails (|z| up to ~6), so both functions are implemented
// with full double-precision tail accuracy: Φ via math.Erfc and Φ⁻¹ via
// Wichura's AS 241 algorithm (PPND16).
package dist

import "math"

// NormalCDF returns Φ(z), the standard normal cumulative distribution
// function, accurate to full double precision including the far tails.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalSF returns the survival function 1-Φ(z) without cancellation in the
// upper tail.
func NormalSF(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// NormalPDF returns the standard normal density at z.
func NormalPDF(z float64) float64 {
	return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
}

// NormalQuantile returns Φ⁻¹(p) for p in (0, 1) using Wichura's AS 241
// PPND16 rational approximations (relative error below 1e-15).  It returns
// ±Inf for p = 0 or 1 and NaN outside [0, 1].
func NormalQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}
	q := p - 0.5
	if math.Abs(q) <= 0.425 {
		// Central region: rational approximation in r = 0.425² - q².
		r := 0.180625 - q*q
		num := (((((((2.5090809287301226727e3*r+3.3430575583588128105e4)*r+
			6.7265770927008700853e4)*r+4.5921953931549871457e4)*r+
			1.3731693765509461125e4)*r+1.9715909503065514427e3)*r+
			1.3314166789178437745e2)*r + 3.3871328727963666080e0)
		den := (((((((5.2264952788528545610e3*r+2.8729085735721942674e4)*r+
			3.9307895800092710610e4)*r+2.1213794301586595867e4)*r+
			5.3941960214247511077e3)*r+6.8718700749205790830e2)*r+
			4.2313330701600911252e1)*r + 1.0)
		return q * num / den
	}
	// Tail regions: approximation in r = sqrt(-log(min(p, 1-p))).
	r := p
	if q > 0 {
		r = 1 - p
	}
	r = math.Sqrt(-math.Log(r))
	var z float64
	if r <= 5 {
		r -= 1.6
		num := (((((((7.74545014278341407640e-4*r+2.27238449892691845833e-2)*r+
			2.41780725177450611770e-1)*r+1.27045825245236838258e0)*r+
			3.64784832476320460504e0)*r+5.76949722146069140550e0)*r+
			4.63033784615654529590e0)*r + 1.42343711074968357734e0)
		den := (((((((1.05075007164441684324e-9*r+5.47593808499534494600e-4)*r+
			1.51986665636164571966e-2)*r+1.48103976427480074590e-1)*r+
			6.89767334985100004550e-1)*r+1.67638483018380384940e0)*r+
			2.05319162663775882187e0)*r + 1.0)
		z = num / den
	} else {
		r -= 5
		num := (((((((2.01033439929228813265e-7*r+2.71155556874348757815e-5)*r+
			1.24266094738807843860e-3)*r+2.65321895265761230930e-2)*r+
			2.96560571828504891230e-1)*r+1.78482653991729133580e0)*r+
			5.46378491116411436990e0)*r + 6.65790464350110377720e0)
		den := (((((((2.04426310338993978564e-15*r+1.42151175831644588870e-7)*r+
			1.84631831751005468180e-5)*r+7.86869131145613259100e-4)*r+
			1.48753612908506148525e-2)*r+1.36929880922735805310e-1)*r+
			5.99832206555887937690e-1)*r + 1.0)
		z = num / den
	}
	if q < 0 {
		return -z
	}
	return z
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
