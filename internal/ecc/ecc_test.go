package ecc

import (
	"errors"
	"testing"
	"testing/quick"

	"xorpuf/internal/rng"
)

func TestFieldConstruction(t *testing.T) {
	for m := 3; m <= 14; m++ {
		f, err := NewField(m)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if f.N != (1<<uint(m))-1 {
			t.Fatalf("m=%d: N=%d", m, f.N)
		}
	}
	if _, err := NewField(2); err == nil {
		t.Error("m=2 should be unsupported")
	}
}

func TestFieldAxioms(t *testing.T) {
	f, err := NewField(8)
	if err != nil {
		t.Fatal(err)
	}
	mask := uint32(f.N)
	if err := quick.Check(func(ar, br, cr uint32) bool {
		a, b, c := ar&mask, br&mask, cr&mask
		// Commutativity and associativity of multiplication.
		if f.Mul(a, b) != f.Mul(b, a) {
			return false
		}
		if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
			return false
		}
		// Distributivity.
		if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
			return false
		}
		// Inverses.
		if a != 0 && f.Mul(a, f.Div(1, a)) != 1 {
			return false
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestFieldExpLogRoundTrip(t *testing.T) {
	f, err := NewField(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f.N; i++ {
		if f.Log(f.Exp(i)) != i {
			t.Fatalf("log(exp(%d)) = %d", i, f.Log(f.Exp(i)))
		}
	}
	// Exp is N-periodic including negatives.
	if f.Exp(-1) != f.Exp(f.N-1) {
		t.Error("negative exponent broken")
	}
}

func TestPolyEval(t *testing.T) {
	f, err := NewField(4)
	if err != nil {
		t.Fatal(err)
	}
	// p(x) = 1 + x: p(α) = 1 ^ α.
	alpha := f.Exp(1)
	if got := f.PolyEval([]uint32{1, 1}, alpha); got != (1 ^ alpha) {
		t.Fatalf("PolyEval = %d, want %d", got, 1^alpha)
	}
	if f.PolyEval(nil, 5) != 0 {
		t.Error("empty polynomial should evaluate to 0")
	}
}

func mustBCH(t testing.TB, m, tcap int) *BCH {
	t.Helper()
	c, err := NewBCH(m, tcap)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBCHKnownParameters(t *testing.T) {
	// Classic codes: BCH(15,7,2), BCH(15,5,3), BCH(127,64,10).
	cases := []struct{ m, t, wantK int }{
		{4, 2, 7},
		{4, 3, 5},
		{7, 10, 64},
		{7, 1, 120},
		{8, 2, 239},
	}
	for _, tc := range cases {
		c := mustBCH(t, tc.m, tc.t)
		if c.K != tc.wantK {
			t.Errorf("BCH(m=%d,t=%d): K=%d, want %d", tc.m, tc.t, c.K, tc.wantK)
		}
	}
}

func TestBCHEncodeIsCodeword(t *testing.T) {
	// Every encoded word must have all syndromes zero (decode fixes 0).
	c := mustBCH(t, 7, 5)
	src := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		msg := randomBits(src, c.K)
		cw, err := c.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		decoded, fixed, err := c.Decode(cw)
		if err != nil || fixed != 0 {
			t.Fatalf("clean codeword decoded with err=%v fixed=%d", err, fixed)
		}
		if !bitsEqual(decoded, cw) {
			t.Fatal("clean decode altered the codeword")
		}
		if !bitsEqual(c.Message(cw), msg) {
			t.Fatal("systematic message extraction failed")
		}
	}
}

func TestBCHCorrectsUpToT(t *testing.T) {
	c := mustBCH(t, 7, 6) // BCH(127,·,6)
	src := rng.New(2)
	for trial := 0; trial < 30; trial++ {
		msg := randomBits(src, c.K)
		cw, err := c.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		nErr := 1 + src.Intn(c.T)
		corrupted := append([]uint8(nil), cw...)
		for _, pos := range src.Perm(c.N)[:nErr] {
			corrupted[pos] ^= 1
		}
		decoded, fixed, err := c.Decode(corrupted)
		if err != nil {
			t.Fatalf("trial %d: decode failed with %d errors: %v", trial, nErr, err)
		}
		if fixed != nErr {
			t.Fatalf("trial %d: fixed %d, want %d", trial, fixed, nErr)
		}
		if !bitsEqual(decoded, cw) {
			t.Fatalf("trial %d: wrong correction", trial)
		}
	}
}

func TestBCHDetectsBeyondT(t *testing.T) {
	// With substantially more than T errors the decoder must not silently
	// return the original codeword: either it errors, or it "corrects" to
	// a different codeword (miscorrection) — never to the true one.
	c := mustBCH(t, 7, 3)
	src := rng.New(3)
	for trial := 0; trial < 30; trial++ {
		msg := randomBits(src, c.K)
		cw, err := c.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		corrupted := append([]uint8(nil), cw...)
		for _, pos := range src.Perm(c.N)[:3*c.T] {
			corrupted[pos] ^= 1
		}
		decoded, _, err := c.Decode(corrupted)
		if err == nil && bitsEqual(decoded, cw) {
			t.Fatalf("trial %d: %d errors silently corrected to the true codeword", trial, 3*c.T)
		}
	}
}

func TestBCHLinearity(t *testing.T) {
	// The sum (XOR) of two codewords is a codeword.
	c := mustBCH(t, 4, 2)
	src := rng.New(4)
	a, err := c.Encode(randomBits(src, c.K))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Encode(randomBits(src, c.K))
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]uint8, c.N)
	for i := range sum {
		sum[i] = a[i] ^ b[i]
	}
	if _, fixed, err := c.Decode(sum); err != nil || fixed != 0 {
		t.Fatalf("codeword sum not a codeword: err=%v fixed=%d", err, fixed)
	}
}

func TestBCHValidation(t *testing.T) {
	if _, err := NewBCH(4, 0); err == nil {
		t.Error("t=0 should fail")
	}
	if _, err := NewBCH(4, 8); err == nil {
		t.Error("t too large for m=4 should fail")
	}
	c := mustBCH(t, 4, 2)
	if _, err := c.Encode(make([]uint8, 3)); err == nil {
		t.Error("wrong message length should fail")
	}
	if _, _, err := c.Decode(make([]uint8, 3)); err == nil {
		t.Error("wrong received length should fail")
	}
}

func TestBCHExhaustiveSingleAndDoubleErrors(t *testing.T) {
	// BCH(15,7,2): every 1- and 2-error pattern on one codeword must
	// decode exactly.
	c := mustBCH(t, 4, 2)
	src := rng.New(5)
	cw, err := c.Encode(randomBits(src, c.K))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.N; i++ {
		for j := i; j < c.N; j++ {
			corrupted := append([]uint8(nil), cw...)
			corrupted[i] ^= 1
			if j != i {
				corrupted[j] ^= 1
			}
			decoded, _, err := c.Decode(corrupted)
			if err != nil || !bitsEqual(decoded, cw) {
				t.Fatalf("error pattern (%d,%d) not corrected: %v", i, j, err)
			}
		}
	}
}

func randomBits(src *rng.Source, n int) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		out[i] = src.Bit()
	}
	return out
}

func bitsEqual(a, b []uint8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestErrTooManyErrorsWrapped(t *testing.T) {
	// Note: the t=1 BCH(15,11) is the perfect Hamming code — every word
	// is within distance 1 of a codeword, so nothing is *detectable*
	// there.  Use the non-perfect t=2 BCH(15,7) with 5-error patterns.
	c := mustBCH(t, 4, 2)
	src := rng.New(6)
	cw, err := c.Encode(randomBits(src, c.K))
	if err != nil {
		t.Fatal(err)
	}
	sawError := false
	for trial := 0; trial < 200 && !sawError; trial++ {
		corrupted := append([]uint8(nil), cw...)
		for _, pos := range src.Perm(c.N)[:5] {
			corrupted[pos] ^= 1
		}
		if _, _, err := c.Decode(corrupted); errors.Is(err, ErrTooManyErrors) {
			sawError = true
		}
	}
	if !sawError {
		t.Error("never observed ErrTooManyErrors on 5-error patterns of the (15,7,2) code")
	}
}

func BenchmarkBCHDecode127(b *testing.B) {
	c := mustBCH(b, 7, 10)
	src := rng.New(7)
	cw, err := c.Encode(randomBits(src, c.K))
	if err != nil {
		b.Fatal(err)
	}
	corrupted := append([]uint8(nil), cw...)
	for _, pos := range src.Perm(c.N)[:10] {
		corrupted[pos] ^= 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Decode(corrupted); err != nil {
			b.Fatal(err)
		}
	}
}
