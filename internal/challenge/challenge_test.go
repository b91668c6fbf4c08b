package challenge

import (
	"math"
	"testing"
	"testing/quick"

	"xorpuf/internal/rng"
)

func TestFeaturesKnown(t *testing.T) {
	// k=3, c = [0,1,0]: suffix parities from stage i to k-1.
	// Φ_3 = 1; Φ_2 = (1-2*0) = 1; Φ_1 = (1-2*1)*1 = -1; Φ_0 = (1-2*0)*-1 = -1.
	c := Challenge{0, 1, 0}
	got := Features(c)
	want := []float64{-1, -1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Features(%v) = %v, want %v", c, got, want)
		}
	}
}

func TestFeaturesAllZero(t *testing.T) {
	c := make(Challenge, 8)
	for _, v := range Features(c) {
		if v != 1 {
			t.Fatal("all-zero challenge must give all-ones features")
		}
	}
}

func TestFeaturesSignStructure(t *testing.T) {
	// Property: Φ_i = (1-2c_i) · Φ_{i+1}, and every entry is ±1.
	if err := quick.Check(func(w uint64) bool {
		c := FromWord(w, 32)
		phi := Features(c)
		if phi[32] != 1 {
			return false
		}
		for i := 31; i >= 0; i-- {
			want := (1 - 2*float64(c[i])) * phi[i+1]
			if phi[i] != want || math.Abs(phi[i]) != 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestFlipLastBitFlipsAllFeatures(t *testing.T) {
	// Flipping the final stage bit negates every non-constant feature.
	c := Random(rng.New(1), 16)
	phi := Features(c)
	c2 := c.Clone()
	c2[15] ^= 1
	phi2 := Features(c2)
	for i := 0; i < 16; i++ {
		if phi2[i] != -phi[i] {
			t.Fatalf("feature %d did not flip", i)
		}
	}
	if phi2[16] != 1 {
		t.Fatal("constant feature must stay 1")
	}
}

func TestWordRoundTrip(t *testing.T) {
	if err := quick.Check(func(w uint64) bool {
		c := FromWord(w, 64)
		return c.Word() == w
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestWordRoundTripShort(t *testing.T) {
	if err := quick.Check(func(w uint32) bool {
		c := FromWord(uint64(w), 32)
		return c.Word() == uint64(w)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRandomChallengeBits(t *testing.T) {
	src := rng.New(2)
	const k, n = 32, 20000
	ones := make([]int, k)
	for i := 0; i < n; i++ {
		c := Random(src, k)
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		for j, b := range c {
			ones[j] += int(b)
		}
	}
	for j, o := range ones {
		frac := float64(o) / n
		if math.Abs(frac-0.5) > 0.02 {
			t.Errorf("bit %d biased: %v", j, frac)
		}
	}
}

func TestFeatureMatrixRows(t *testing.T) {
	src := rng.New(4)
	cs := RandomBatch(src, 50, 24)
	m := FeatureMatrix(cs)
	if m.Rows != 50 || m.Cols != 25 {
		t.Fatalf("shape %dx%d, want 50x25", m.Rows, m.Cols)
	}
	for i, c := range cs {
		phi := Features(c)
		row := m.Row(i)
		for j := range phi {
			if row[j] != phi[j] {
				t.Fatalf("row %d differs from Features", i)
			}
		}
	}
}

func TestAllEnumeratesExactly(t *testing.T) {
	seen := map[uint64]bool{}
	All(6, func(c Challenge) bool {
		seen[c.Word()] = true
		return true
	})
	if len(seen) != 64 {
		t.Fatalf("enumerated %d challenges, want 64", len(seen))
	}
}

func TestAllEarlyStop(t *testing.T) {
	count := 0
	All(8, func(c Challenge) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop after %d, want 10", count)
	}
}

func TestValidateRejectsBadBit(t *testing.T) {
	c := Challenge{0, 1, 2}
	if err := c.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestStringRendering(t *testing.T) {
	c := Challenge{1, 0, 1, 1}
	if c.String() != "1011" {
		t.Fatalf("String = %q", c.String())
	}
}

func BenchmarkFeatures64(b *testing.B) {
	c := Random(rng.New(1), 64)
	dst := make([]float64, 65)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FeaturesInto(c, dst)
	}
}
