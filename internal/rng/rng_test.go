package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

// TestUnread checks that Unread(n) followed by n draws repeats the last n
// values in order and leaves the stream where it was, and that Unread(0)
// changes nothing.
func TestUnread(t *testing.T) {
	s, ref := New(99), New(99)
	for _, n := range []int{0, 1, 2, 7, 128, 1000} {
		last := make([]uint64, n)
		for i := range last {
			last[i] = s.Uint64()
			if want := ref.Uint64(); last[i] != want {
				t.Fatalf("draw %d before Unread(%d): %#x, reference %#x", i, n, last[i], want)
			}
		}
		s.Unread(n)
		for i, want := range last {
			if got := s.Uint64(); got != want {
				t.Fatalf("Unread(%d): draw %d repeated as %#x, want %#x", n, i, got, want)
			}
		}
		if got, want := s.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("after Unread(%d) and its repeats: next draw %#x, reference %#x", n, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Unread(-1) did not panic")
		}
	}()
	s.Unread(-1)
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Split("chips")
	root2 := New(7)
	c2 := root2.Split("chips")
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("same-label splits diverged at step %d", i)
		}
	}
	// Different labels must produce different streams.
	d1 := New(7).Split("alpha")
	d2 := New(7).Split("beta")
	same := 0
	for i := 0; i < 64; i++ {
		if d1.Uint64() == d2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct labels collided %d/64 times", same)
	}
}

func TestSplitIndexDistinct(t *testing.T) {
	seen := make(map[uint64]int)
	for i := 0; i < 1000; i++ {
		v := New(3).SplitIndex(i).Uint64()
		if j, dup := seen[v]; dup {
			t.Fatalf("index streams %d and %d collided", i, j)
		}
		seen[v] = i
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(1)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(5)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d: count %d, want ~%.0f", v, c, want)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(9)
	if err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := s.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(11)
	const trials = 200000
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		x := s.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(17)
	if err := quick.Check(func(n uint8) bool {
		m := int(n%50) + 1
		p := s.Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomialExactTails(t *testing.T) {
	// With tiny q the exact inversion path must reproduce P(X=0) = (1-q)^n.
	s := New(19)
	const n = 100000
	q := 2e-6 // (1-q)^n ~ 0.819
	const trials = 20000
	zeros := 0
	for i := 0; i < trials; i++ {
		if s.Binomial(n, q) == 0 {
			zeros++
		}
	}
	want := math.Exp(float64(n) * math.Log1p(-q))
	got := float64(zeros) / trials
	if math.Abs(got-want) > 0.012 {
		t.Errorf("P(X=0): got %v, want %v", got, want)
	}
}

func TestBinomialMoments(t *testing.T) {
	s := New(23)
	cases := []struct {
		n int
		p float64
	}{
		{100000, 0.5}, {100000, 0.1}, {100000, 0.9}, {500, 0.3}, {10, 0.7},
	}
	for _, c := range cases {
		const trials = 5000
		var sum, sumSq float64
		for i := 0; i < trials; i++ {
			x := float64(s.Binomial(c.n, c.p))
			sum += x
			sumSq += x * x
		}
		mean := sum / trials
		variance := sumSq/trials - mean*mean
		wantMean := float64(c.n) * c.p
		wantVar := wantMean * (1 - c.p)
		if math.Abs(mean-wantMean) > 6*math.Sqrt(wantVar/trials)+1 {
			t.Errorf("n=%d p=%v: mean %v, want %v", c.n, c.p, mean, wantMean)
		}
		if math.Abs(variance-wantVar)/wantVar > 0.15 {
			t.Errorf("n=%d p=%v: variance %v, want %v", c.n, c.p, variance, wantVar)
		}
	}
}

func TestBinomialBounds(t *testing.T) {
	s := New(29)
	if err := quick.Check(func(np uint16, pf uint16) bool {
		n := int(np % 2000)
		p := float64(pf) / 65535
		k := s.Binomial(n, p)
		return k >= 0 && k <= n
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomialDegenerate(t *testing.T) {
	s := New(31)
	if got := s.Binomial(100, 0); got != 0 {
		t.Errorf("p=0: got %d", got)
	}
	if got := s.Binomial(100, 1); got != 100 {
		t.Errorf("p=1: got %d", got)
	}
	if got := s.Binomial(0, 0.5); got != 0 {
		t.Errorf("n=0: got %d", got)
	}
}

func BenchmarkNorm(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Norm()
	}
}

func BenchmarkBinomialCounter(b *testing.B) {
	// The soft-response counter draw: Binomial(100000, p) with p in the
	// stable tail. This replaces 100,000 PUF evaluations per challenge.
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Binomial(100000, 1e-6)
	}
}

// unmix64 inverts mix64: each xorshift is undone by re-applying it until
// the shifted-in bits settle, each odd multiplier by its inverse mod 2⁶⁴.
func unmix64(z uint64) uint64 {
	unshift := func(z uint64, s uint) uint64 {
		x := z
		for i := uint(0); i < 64; i += s {
			x = z ^ x>>s
		}
		return x
	}
	inverse := func(c uint64) uint64 {
		x := c // c·c ≡ 1 mod 8; each Newton step doubles the good bits
		for i := 0; i < 5; i++ {
			x *= 2 - c*x
		}
		return x
	}
	z = unshift(z, 31)
	z *= inverse(0x94D049BB133111EB)
	z = unshift(z, 27)
	z *= inverse(0xBF58476D1CE4E5B9)
	return unshift(z, 30)
}

// atDraw returns a source whose next Uint64 is x.
func atDraw(x uint64) *Source {
	return &Source{state: unmix64(x) - golden}
}

// checkNoisyPositive compares NoisyPositive on a against the reference
// d + sigma*Norm() > 0 on its twin b, and the two streams' positions after.
func checkNoisyPositive(t *testing.T, a, b *Source, d, sigma float64) {
	t.Helper()
	got := a.NoisyPositive(d, sigma)
	want := d+sigma*b.Norm() > 0
	if got != want {
		t.Fatalf("NoisyPositive(%g, %g) = %v, d + sigma·Norm() > 0 is %v", d, sigma, got, want)
	}
	if *a != *b {
		t.Fatalf("NoisyPositive(%g, %g) left the stream at a different position than Norm", d, sigma)
	}
}

func TestNoisyPositiveMatchesNorm(t *testing.T) {
	negZero := math.Copysign(0, -1)
	ds := []float64{
		0, negZero, 5e-324, -5e-324, 0x1p-1030, 0x1p-540, -0x1p-520, 1e-160,
		0.1, -0.3, 1, -1, 8, -8, 1.4e154, -1.4e154, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	sigmas := []float64{0, negZero, 5e-324, 1e-300, 0.47, 1, 3, 1e154, 1e300, math.MaxFloat64, math.Inf(1)}
	for _, d := range ds {
		for _, sigma := range sigmas {
			for seed := uint64(0); seed < 500; seed++ {
				checkNoisyPositive(t, New(seed), New(seed), d, sigma)
			}
		}
	}
	// u = 0 exactly: the first draw's Float64 is ½.
	if u := 2*atDraw(1<<63).Float64() - 1; u != 0 {
		t.Fatalf("atDraw(1<<63) draws u = %g, want 0", u)
	}
	for _, d := range ds {
		for _, sigma := range sigmas {
			checkNoisyPositive(t, atDraw(1<<63), atDraw(1<<63), d, sigma)
		}
	}
	// Random Δ and σ around the certificates' boundary.
	src := New(77)
	for i := 0; i < 200_000; i++ {
		d := (2*src.Float64() - 1) * 4
		sigma := 2 * src.Float64()
		seed := src.Uint64()
		checkNoisyPositive(t, New(seed), New(seed), d, sigma)
	}
}
