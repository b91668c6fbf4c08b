// Package ecc implements binary BCH error-correcting codes over GF(2^m) and
// a code-offset fuzzy extractor on top of them — the standard machinery for
// deriving stable cryptographic keys from noisy PUF responses.
//
// The paper's challenge-selection scheme makes responses 100 %-stable, so a
// key can in principle be reproduced with no error correction at all; this
// package quantifies that advantage: the fuzzy-extractor experiments compare
// the error-correction budget (and hence helper-data leakage and code rate)
// needed with raw responses versus model-selected ones.
package ecc

import "fmt"

// primitivePolys[m] is a primitive polynomial of degree m over GF(2),
// encoded with bit i = coefficient of x^i (the x^m term included).
var primitivePolys = map[int]uint32{
	3:  0b1011,            // x³+x+1
	4:  0b10011,           // x⁴+x+1
	5:  0b100101,          // x⁵+x²+1
	6:  0b1000011,         // x⁶+x+1
	7:  0b10001001,        // x⁷+x³+1
	8:  0b100011101,       // x⁸+x⁴+x³+x²+1
	9:  0b1000010001,      // x⁹+x⁴+1
	10: 0b10000001001,     // x¹⁰+x³+1
	11: 0b100000000101,    // x¹¹+x²+1
	12: 0b1000001010011,   // x¹²+x⁶+x⁴+x+1
	13: 0b10000000011011,  // x¹³+x⁴+x³+x+1
	14: 0b100010001000011, // x¹⁴+x¹⁰+x⁶+x+1
}

// Field is GF(2^m) with exp/log tables over a primitive element α.
type Field struct {
	M    int
	Size int // 2^m
	N    int // 2^m − 1, the multiplicative order
	exp  []uint32
	log  []int
}

// NewField constructs GF(2^m) for 3 ≤ m ≤ 14.
func NewField(m int) (*Field, error) {
	poly, ok := primitivePolys[m]
	if !ok {
		return nil, fmt.Errorf("ecc: no primitive polynomial for m=%d", m)
	}
	f := &Field{M: m, Size: 1 << uint(m), N: (1 << uint(m)) - 1}
	f.exp = make([]uint32, 2*f.N)
	f.log = make([]int, f.Size)
	for i := range f.log {
		f.log[i] = -1
	}
	x := uint32(1)
	for i := 0; i < f.N; i++ {
		f.exp[i] = x
		f.exp[i+f.N] = x // doubled table: mod-free products
		f.log[x] = i
		x <<= 1
		if x&(1<<uint(m)) != 0 {
			x ^= poly
		}
	}
	if x != 1 {
		return nil, fmt.Errorf("ecc: polynomial %#b is not primitive for m=%d", poly, m)
	}
	return f, nil
}

// Add returns a + b (XOR in characteristic 2).
func (f *Field) Add(a, b uint32) uint32 { return a ^ b }

// Mul returns a·b.
func (f *Field) Mul(a, b uint32) uint32 {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Div returns a/b; it panics when b is 0.
func (f *Field) Div(a, b uint32) uint32 {
	if b == 0 {
		panic("ecc: division by zero")
	}
	if a == 0 {
		return 0
	}
	return f.exp[(f.log[a]-f.log[b]+f.N)%f.N]
}

// Exp returns α^i for any integer i (negative allowed).
func (f *Field) Exp(i int) uint32 {
	i %= f.N
	if i < 0 {
		i += f.N
	}
	return f.exp[i]
}

// Log returns log_α(a); it panics on 0.
func (f *Field) Log(a uint32) int {
	if a == 0 {
		panic("ecc: log of zero")
	}
	return f.log[a]
}

// PolyEval evaluates a polynomial with GF(2^m) coefficients (index i =
// coefficient of x^i) at point x by Horner's rule.
func (f *Field) PolyEval(p []uint32, x uint32) uint32 {
	var acc uint32
	for i := len(p) - 1; i >= 0; i-- {
		acc = f.Add(f.Mul(acc, x), p[i])
	}
	return acc
}
