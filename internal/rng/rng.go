// Package rng provides the deterministic random-number machinery used by the
// silicon simulation and the experiment harness.
//
// Everything in this repository must be exactly reproducible from a single
// 64-bit seed: chips, wafers, challenges, per-evaluation thermal noise and
// the Monte-Carlo soft-response counters.  To make that possible without
// threading one shared generator through every call site (which would make
// results depend on evaluation order), the package provides a *splittable*
// PRNG: any Source can derive an independent child stream from a label, and
// sibling streams never interact.
//
// The core generator is SplitMix64 (Steele, Lea, Flood; OOPSLA 2014), which
// passes BigCrush, has a full 2^64 period per stream, and whose output
// function doubles as a high-quality hash for deriving child seeds.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic, splittable pseudo-random source.
//
// A Source is NOT safe for concurrent use; derive one child stream per
// goroutine with Split instead of sharing.
type Source struct {
	state uint64
}

// golden is the SplitMix64 increment (odd, derived from the golden ratio).
const golden = 0x9E3779B97F4A7C15

// New returns a Source seeded from seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// mix64 is the SplitMix64 output function; it is a bijective finalizer with
// good avalanche behaviour, so it is also used to hash labels when splitting.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

// Unread steps the stream back by n draws, so the next n calls to Uint64
// repeat the last n values in order.  SplitMix64's state is a counter
// (each draw adds golden), so this is one subtraction.  It panics if n < 0.
func (s *Source) Unread(n int) {
	if n < 0 {
		panic("rng: Unread called with negative n")
	}
	s.state -= uint64(n) * golden
}

// Split derives an independent child stream from a string label.  Calling
// Split with the same label on sources in the same state yields identical
// children; distinct labels yield streams that are independent for all
// practical purposes.
func (s *Source) Split(label string) *Source {
	h := s.Uint64()
	for i := 0; i < len(label); i++ {
		h = mix64(h ^ uint64(label[i])*golden)
	}
	return &Source{state: h}
}

// SplitIndex derives an independent child stream from an integer index,
// without perturbing streams derived from other indices.
func (s *Source) SplitIndex(index int) *Source {
	h := s.Uint64()
	h = mix64(h ^ uint64(index)*golden)
	return &Source{state: h}
}

// Fork derives a child stream keyed by both a label and an index; shorthand
// for Split(label).SplitIndex(index) used when instantiating arrays of
// components (chips, PUFs, stages).
func (s *Source) Fork(label string, index int) *Source {
	return s.Split(label).SplitIndex(index)
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n).  It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and division-free
	// in the common case.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		hi, lo := bits.Mul64(s.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Bit returns a single uniformly distributed bit.
func (s *Source) Bit() uint8 {
	return uint8(s.Uint64() >> 63)
}

// Read fills p with pseudo-random bytes and never returns an error,
// implementing io.Reader so a deterministic Source can stand in for
// crypto/rand.Reader in simulations, tests, and benchmarks.  It must NOT be
// used where the bytes become secrets visible to an adversary: SplitMix64's
// output function is an invertible bijection, so emitted bytes reveal the
// stream state.
func (s *Source) Read(p []byte) (int, error) {
	for i := 0; i < len(p); i += 8 {
		v := s.Uint64()
		for j := 0; j < 8 && i+j < len(p); j++ {
			p[i+j] = byte(v >> (8 * uint(j)))
		}
	}
	return len(p), nil
}

// Norm returns a standard normal variate (mean 0, stddev 1) using the
// Marsaglia polar method.  The polar method needs no tables and is exactly
// reproducible across platforms because it uses only basic arithmetic and
// math.Sqrt/math.Log, which are correctly rounded on all Go ports.
func (s *Source) Norm() float64 {
	u, _, q := s.polar()
	return u * math.Sqrt(-2*math.Log(q)/q)
}

// NormPair returns two independent standard normal variates, using both
// outputs of the polar method (twice as fast when both are needed).
func (s *Source) NormPair() (float64, float64) {
	u, v, q := s.polar()
	f := math.Sqrt(-2 * math.Log(q) / q)
	return u * f, v * f
}

// polar draws the polar method's accepted point: u and v uniform on
// (−1, 1), redrawn until q = u² + v² lies in (0, 1).  Norm, NormPair and
// NoisyPositive all draw through it, so they consume the stream alike.
func (s *Source) polar() (u, v, q float64) {
	for {
		u = 2*s.Float64() - 1
		v = 2*s.Float64() - 1
		q = u*u + v*v
		if q > 0 && q < 1 {
			return u, v, q
		}
	}
}

// NoisyPositive reports whether d + sigma·N > 0 for the standard normal N
// that Norm would return from the same stream position, and leaves the
// stream where Norm would: it returns exactly d+sigma*s.Norm() > 0.  sigma
// must not be negative or NaN (−0 counts as 0; +Inf is allowed).  Most
// draws are decided without the logarithm, by one of two certificates that
// the noise cannot carry d + sigma·N across 0.
//
// Proof.  u is exact (2f − 1 with f a multiple of 2⁻⁵³) and q is the float
// in (0, 1) that Norm uses; Norm returns N̂ = u·F̂, F̂ the float value of
// √(−2·ln q/q).  u and v are multiples of 2⁻⁵², so q ≥ 2⁻¹⁰⁴ and F̂ is
// positive and finite, and N̂ is +0 when u is and otherwise nonzero with
// u's sign (|u| ≥ 2⁻⁵², no underflow).  Let ε = 2⁻⁵³.  The reference may
// round sigma·N̂ and then the sum, or (Go may contract d + x·y on arm64,
// ppc64 and s390x) round the exact d + sigma·N̂ once.  Either way its
// answer is d > 0 whenever the exact terms give a sum with d's sign and
// d ≠ 0, provided the sum is at least 2⁻¹⁰⁷³ in magnitude or the rounded
// product is used (two floats sum to 0 only when they cancel exactly).
//
//	(a) u·d > 0.  u and d are nonzero with one sign (NaN fails, and a
//	    product that underflows to 0 only passes the draw on to (b)).
//	    sigma·N̂ is ±0 (sigma = ±0) or has d's sign (±Inf for sigma =
//	    +Inf), so the sum has d's sign and at least |d| in magnitude.
//	(b) lhs < rhs with rhs ≥ 2⁻¹⁰²², where lhs = 4·(σu)·(σu)·(1−q) and
//	    rhs = (dq)·(dq) as floats.  sigma = +Inf makes lhs +Inf, or NaN
//	    at u = 0, so (b) never holds for it.  Since ln x ≥ 1 − 1/x,
//	    −ln q ≤ (1−q)/q, so N² = u²·(−2·ln q)/q ≤ 2u²(1−q)/q² and
//	    σ²N² ≤ L/(2q²) for the exact L = 4σ²u²(1−q).  A normal rhs needs |dq| ≥ 2⁻⁵¹², a normal
//	    float, so |d| > 2⁻⁵¹² and either rhs ≤ d²q²·(1+ε)³ or rhs = +Inf
//	    with d²q² > MaxFloat64/(1+ε)² (a d of ±Inf is ±Inf + finite = d
//	    at once).  Each rounding in lhs errs by a factor 1 ± ε or, where
//	    it underflows, by at most 2⁻¹⁰⁷⁵, and an underflowed σu leaves
//	    L < 2⁻¹⁰⁷⁴, so L ≤ (lhs + 2⁻¹⁰⁷⁴)/(1−ε)⁴; lhs < rhs makes lhs
//	    finite and 2⁻¹⁰⁷⁴ ≤ 2⁻⁵²·rhs.  In both cases L < d²q²·(1 + 2⁻⁴⁹),
//	    so σ²N² < d²·(1 + 2⁻⁴⁹)/2.  Log, Sqrt, the division and the
//	    product each err by a few ulps at most (any relative error below
//	    1 % would do), so |σN̂| < 0.71·|d|, and the rounded fl(σN̂) too
//	    (its underflow term is far below |d|).  The sum then has d's sign
//	    and at least 0.29·|d| > 2⁻⁵¹⁴ in magnitude.
//
// Every other draw takes the exact expression in the reference's own form,
// d + sigma*N: d = ±0 (u·d is ±0 and rhs is 0), NaN (every comparison
// fails), a d too small for rhs to be normal (subnormals among them), and
// a u opposite to d, or 0, that (b) cannot settle.  With sigma = ±0, lhs is
// 0, so every d with a normal rhs is settled with the answer d > 0, which
// is the reference's since d + ±0 = d.
func (s *Source) NoisyPositive(d, sigma float64) bool {
	u, _, q := s.polar()
	if u*d > 0 {
		return d > 0
	}
	su, dq := sigma*u, d*q
	if rhs := dq * dq; 4*su*su*(1-q) < rhs && rhs >= 0x1p-1022 {
		return d > 0
	}
	return d+sigma*(u*math.Sqrt(-2*math.Log(q)/q)) > 0
}

// Perm returns a uniformly random permutation of [0, n) via Fisher–Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n indices in place using the provided swap
// function, mirroring math/rand.Shuffle.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
