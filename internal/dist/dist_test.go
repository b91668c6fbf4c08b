package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct {
		z, want float64
	}{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{4.35, 0.99999319312},
		{-4.35, 6.80688e-06},
		{6, 0.9999999990134123},
		{-6, 9.865876450376981e-10},
	}
	for _, c := range cases {
		tol := 1e-8
		if c.want < 1e-6 {
			tol = 1e-12 * c.want // deep in the lower tail only a relative bound says anything
		}
		if got := NormalCDF(c.z); math.Abs(got-c.want) > tol {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestNormalPDFIntegratesToCDF(t *testing.T) {
	// Trapezoidal integration of the density must reproduce the CDF.
	const dz = 1e-4
	const steps = 100000 // -8 to 2 in exact integer steps
	sum := NormalCDF(-8)
	for i := 0; i < steps; i++ {
		z := -8 + dz*float64(i)
		sum += dz * 0.5 * (NormalPDF(z) + NormalPDF(z+dz))
	}
	if got, want := sum, NormalCDF(2); math.Abs(got-want) > 1e-6 {
		t.Errorf("integrated CDF at 2: got %v, want %v", got, want)
	}
}

func TestAllAgreeProbability(t *testing.T) {
	// p = 0.5, n = 2: P(agree) = 0.5.
	if got := AllAgreeProbability(2, 0.5); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("n=2 p=0.5: got %v", got)
	}
	// Extreme p with deep counters must not underflow to 0 incorrectly.
	got := AllAgreeProbability(100000, 1-1e-7)
	want := math.Exp(100000 * math.Log1p(-1e-7))
	if math.Abs(got-want) > 1e-10 {
		t.Errorf("deep counter: got %v, want %v", got, want)
	}
	if AllAgreeProbability(100000, 0) != 1 || AllAgreeProbability(100000, 1) != 1 {
		t.Error("degenerate p should agree with certainty")
	}
}

func TestAllAgreeSymmetric(t *testing.T) {
	if err := quick.Check(func(raw uint16) bool {
		p := float64(raw) / 65535
		a := AllAgreeProbability(1000, p)
		b := AllAgreeProbability(1000, 1-p)
		return math.Abs(a-b) < 1e-12
	}, nil); err != nil {
		t.Error(err)
	}
}
