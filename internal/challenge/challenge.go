// Package challenge defines arbiter-PUF challenges and the parity feature
// transform used by every linear and machine-learning model in this
// repository.
//
// A challenge for a k-stage MUX arbiter PUF is a vector of k select bits.
// The standard linear additive delay model (paper §4, refs [1-3]) expresses
// the arbiter's delay difference as Δ(c) = w·Φ(c), where Φ(c) ∈ {−1,+1}^{k+1}
// is the parity ("transformed challenge") vector
//
//	Φ_i(c) = Π_{j=i}^{k-1} (1 − 2·c_j)   for i = 0..k−1,   Φ_k(c) = 1.
//
// Φ_i flips sign whenever an odd number of downstream stages swap the two
// racing paths; the constant last component absorbs the arbiter's own bias.
package challenge

import (
	"fmt"
	"math"

	"xorpuf/internal/linalg"
	"xorpuf/internal/rng"
)

// Challenge is a vector of MUX select bits, one per stage, each 0 or 1.
type Challenge []uint8

// Validate returns an error if any bit is not 0 or 1.
func (c Challenge) Validate() error {
	for i, b := range c {
		if b > 1 {
			return fmt.Errorf("challenge: bit %d is %d, want 0 or 1", i, b)
		}
	}
	return nil
}

// Clone returns a deep copy of the challenge.
func (c Challenge) Clone() Challenge {
	out := make(Challenge, len(c))
	copy(out, c)
	return out
}

// String renders the challenge as a bit string, stage 0 first.
func (c Challenge) String() string {
	buf := make([]byte, len(c))
	for i, b := range c {
		buf[i] = '0' + b
	}
	return string(buf)
}

// Word packs the first 64 bits of the challenge into a uint64 (stage 0 in the
// least significant bit); used as a compact map key for dedup and CRP stores.
func (c Challenge) Word() uint64 {
	var w uint64
	n := len(c)
	if n > 64 {
		n = 64
	}
	for i := 0; i < n; i++ {
		w |= uint64(c[i]) << uint(i)
	}
	return w
}

// FromWord unpacks a uint64 into a k-bit challenge (inverse of Word for
// k ≤ 64).
func FromWord(w uint64, k int) Challenge {
	c := make(Challenge, k)
	WordInto(w, c)
	return c
}

// WordInto unpacks w into the first min(len(c), 64) stages of c, stage i
// from bit i, without allocating.
func WordInto(w uint64, c Challenge) {
	for i := range c[:min(len(c), 64)] {
		c[i] = uint8(w >> uint(i) & 1)
	}
}

// Random returns a uniformly random k-bit challenge drawn from src.
func Random(src *rng.Source, k int) Challenge {
	c := make(Challenge, k)
	for i := 0; i < k; i += 64 {
		w := src.Uint64()
		for j := i; j < i+64 && j < k; j++ {
			c[j] = uint8(w & 1)
			w >>= 1
		}
	}
	return c
}

// RandomBatch returns n independent uniformly random k-bit challenges.
func RandomBatch(src *rng.Source, n, k int) []Challenge {
	out := make([]Challenge, n)
	for i := range out {
		out[i] = Random(src, k)
	}
	return out
}

// FeatureDim returns the length of the parity feature vector for k stages.
func FeatureDim(k int) int { return k + 1 }

// Features computes the parity feature vector Φ(c) ∈ {−1,+1}^{k+1}.
func Features(c Challenge) []float64 {
	phi := make([]float64, len(c)+1)
	FeaturesInto(c, phi)
	return phi
}

// FeaturesInto computes Φ(c) into dst, which must have length len(c)+1.
// The suffix products are accumulated right-to-left in O(k).
func FeaturesInto(c Challenge, dst []float64) {
	k := len(c)
	if len(dst) != k+1 {
		panic(fmt.Sprintf("challenge: feature buffer length %d, want %d", len(dst), k+1))
	}
	dst[k] = 1
	acc := 1.0
	for i := k - 1; i >= 0; i-- {
		// Branchless sign flip: challenge bits are effectively random, so
		// a compare here mispredicts half the time on the issuance hot
		// path.  XORing the sign bit negates exactly (±1 stays exact).
		acc = math.Float64frombits(math.Float64bits(acc) ^ uint64(c[i]&1)<<63)
		dst[i] = acc
	}
}

// FeatureMatrix builds the n×(k+1) design matrix whose rows are Φ(c) for
// each challenge; this is the input to both the linear enrollment regression
// and the modeling attacks.
func FeatureMatrix(cs []Challenge) *linalg.Matrix {
	if len(cs) == 0 {
		return linalg.NewMatrix(0, 0)
	}
	k := len(cs[0])
	m := linalg.NewMatrix(len(cs), k+1)
	for i, c := range cs {
		if len(c) != k {
			panic(fmt.Sprintf("challenge: mixed challenge lengths %d and %d", k, len(c)))
		}
		FeaturesInto(c, m.Row(i))
	}
	return m
}

// All enumerates every k-bit challenge in counting order, invoking fn for
// each; it stops early if fn returns false.  Only practical for small k
// (tests, exhaustive CRP-space checks).
func All(k int, fn func(Challenge) bool) {
	if k > 30 {
		panic("challenge: exhaustive enumeration limited to k <= 30")
	}
	c := make(Challenge, k)
	total := uint64(1) << uint(k)
	for w := uint64(0); w < total; w++ {
		for i := 0; i < k; i++ {
			c[i] = uint8((w >> uint(i)) & 1)
		}
		if !fn(c) {
			return
		}
	}
}
