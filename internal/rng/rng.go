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
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// NormPair returns two independent standard normal variates, using both
// outputs of the polar method (twice as fast when both are needed).
func (s *Source) NormPair() (float64, float64) {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			f := math.Sqrt(-2 * math.Log(q) / q)
			return u * f, v * f
		}
	}
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
