package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if s := Std(xs); math.Abs(s-2.13809) > 1e-4 {
		t.Errorf("Std = %v, want ≈2.138", s)
	}
	if Mean(nil) != 0 || Std([]float64{1}) != 0 {
		t.Error("degenerate inputs should return 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.125, 1.5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7, 2}
	if err := quick.Check(func(a, b uint8) bool {
		qa := float64(a) / 255
		qb := float64(b) / 255
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(xs, qa) <= Quantile(xs, qb)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftHistogramEndBins(t *testing.T) {
	h := NewSoftHistogram(0.05)
	h.Add(0)
	h.Add(0)
	h.Add(1)
	h.Add(0.5)
	h.Add(0.999) // interior, not the exact-1 bin
	if h.Exact0 != 2 || h.Exact1 != 1 {
		t.Fatalf("end bins %d/%d, want 2/1", h.Exact0, h.Exact1)
	}
	if h.Total != 5 {
		t.Fatalf("total %d, want 5", h.Total)
	}
	if got := h.FracStable0() + h.FracStable1(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("stable fraction = %v, want 0.6", got)
	}
	if h.Interior[len(h.Interior)-1] != 1 {
		t.Error("0.999 should land in the last interior bin")
	}
	if h.Interior[10] != 1 {
		t.Error("0.5 should land in bin 10")
	}
}

func TestSoftHistogramCountsConserved(t *testing.T) {
	if err := quick.Check(func(raw []uint16) bool {
		h := NewSoftHistogram(0.05)
		for _, r := range raw {
			h.Add(float64(r) / 65535)
		}
		sum := h.Exact0 + h.Exact1
		for _, c := range h.Interior {
			sum += c
		}
		return sum == h.Total && h.Total == len(raw)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftHistogramRender(t *testing.T) {
	h := NewSoftHistogram(0.5)
	h.Add(0)
	h.Add(0.25)
	h.Add(1)
	out := h.Render(10)
	if !strings.Contains(out, "=0.00") || !strings.Contains(out, "=1.00") {
		t.Errorf("render missing end-bin labels:\n%s", out)
	}
}

func TestValueHistogramOverflowBins(t *testing.T) {
	h := NewValueHistogram(-0.5, 1.5, 0.1)
	h.Add(-1)  // below
	h.Add(2)   // above
	h.Add(0.5) // interior
	h.Add(1.5) // boundary: last bin
	if h.Below != 1 || h.Above != 1 {
		t.Fatalf("overflow bins %d/%d, want 1/1", h.Below, h.Above)
	}
	sum := h.Below + h.Above
	for _, c := range h.Counts {
		sum += c
	}
	if sum != h.Total || h.Total != 4 {
		t.Fatalf("counts not conserved: %d vs %d", sum, h.Total)
	}
}

func TestExpFitRecoversBase(t *testing.T) {
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	fracs := make([]float64, len(ns))
	for i, n := range ns {
		fracs[i] = 0.95 * math.Pow(0.8, float64(n))
	}
	base, pre, used := ExpFit(ns, fracs)
	if used != 10 {
		t.Fatalf("used %d points, want 10", used)
	}
	if math.Abs(base-0.8) > 1e-9 || math.Abs(pre-0.95) > 1e-9 {
		t.Errorf("fit (%v, %v), want (0.8, 0.95)", base, pre)
	}
}

func TestExpFitSkipsZeros(t *testing.T) {
	base, _, used := ExpFit([]int{1, 2, 3}, []float64{0.5, 0, 0.125})
	if used != 2 {
		t.Fatalf("used %d, want 2", used)
	}
	if math.Abs(base-0.5) > 1e-9 {
		t.Errorf("base %v, want 0.5", base)
	}
}

func TestUniformity(t *testing.T) {
	if got := Uniformity([]uint8{1, 1, 0, 0}); got != 0.5 {
		t.Errorf("Uniformity = %v", got)
	}
	if Uniformity(nil) != 0 {
		t.Error("empty uniformity should be 0")
	}
}

func TestHammingFrac(t *testing.T) {
	a := []uint8{0, 1, 0, 1}
	b := []uint8{0, 1, 1, 0}
	if got := HammingFrac(a, b); got != 0.5 {
		t.Errorf("HammingFrac = %v, want 0.5", got)
	}
	if HammingFrac(a, a) != 0 {
		t.Error("self-distance should be 0")
	}
}

func TestHammingSymmetricProperty(t *testing.T) {
	if err := quick.Check(func(x, y uint64) bool {
		a := make([]uint8, 64)
		b := make([]uint8, 64)
		for i := 0; i < 64; i++ {
			a[i] = uint8((x >> uint(i)) & 1)
			b[i] = uint8((y >> uint(i)) & 1)
		}
		return HammingFrac(a, b) == HammingFrac(b, a)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestUniqueness(t *testing.T) {
	m := [][]uint8{
		{0, 0, 0, 0},
		{1, 1, 1, 1},
		{0, 0, 1, 1},
	}
	// Pairs: (0,1)=1.0, (0,2)=0.5, (1,2)=0.5 → mean 2/3.
	if got := Uniqueness(m); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Uniqueness = %v, want 2/3", got)
	}
	if Uniqueness(m[:1]) != 0 {
		t.Error("single-row uniqueness should be 0")
	}
}

func TestReliability(t *testing.T) {
	ref := []uint8{0, 1, 0, 1}
	repeats := [][]uint8{
		{0, 1, 0, 1}, // identical
		{0, 1, 1, 1}, // 1 flip
	}
	want := 1 - (0.0+0.25)/2
	if got := Reliability(ref, repeats); math.Abs(got-want) > 1e-12 {
		t.Errorf("Reliability = %v, want %v", got, want)
	}
	if Reliability(ref, nil) != 1 {
		t.Error("no repeats should give reliability 1")
	}
}

func TestBitAliasing(t *testing.T) {
	m := [][]uint8{
		{0, 1, 1},
		{0, 1, 0},
	}
	got := BitAliasing(m)
	want := []float64{0, 1, 0.5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("BitAliasing = %v, want %v", got, want)
			break
		}
	}
}
