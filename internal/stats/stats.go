// Package stats provides the descriptive statistics the experiment harness
// reports: soft-response histograms in the paper's format (exact-0.00 and
// exact-1.00 end bins plus 0.05-wide interior bins, Figs 2/8/9/11), the
// classical PUF quality metrics (uniformity, uniqueness, reliability,
// bit-aliasing), and exponential-decay fits for the 0.8ⁿ-style curves of
// Figs 3 and 12.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the sample standard deviation (n−1 denominator; 0 if n < 2).
func Std(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// MinMax returns the smallest and largest values of xs; it panics on empty
// input.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics; it panics on empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// SoftHistogram accumulates soft responses the way the paper plots them:
// the exactly-0.00 and exactly-1.00 measurements (the 100 %-stable CRPs) are
// separate end bins, and the open interval (0, 1) is split into fixed-width
// interior bins.
type SoftHistogram struct {
	BinWidth float64
	Interior []int // interior bin counts over (0, 1)
	Exact0   int   // soft response exactly 0.00
	Exact1   int   // soft response exactly 1.00
	Total    int
}

// NewSoftHistogram returns a histogram with the given interior bin width
// (the paper uses 0.05).
func NewSoftHistogram(binWidth float64) *SoftHistogram {
	if binWidth <= 0 || binWidth > 1 {
		panic(fmt.Sprintf("stats: bin width %v outside (0,1]", binWidth))
	}
	n := int(math.Ceil(1/binWidth - 1e-9))
	return &SoftHistogram{BinWidth: binWidth, Interior: make([]int, n)}
}

// Add records one soft response in [0, 1].
func (h *SoftHistogram) Add(v float64) {
	switch {
	case v < 0 || v > 1 || math.IsNaN(v):
		panic(fmt.Sprintf("stats: soft response %v outside [0,1]", v))
	case v == 0:
		h.Exact0++
	case v == 1:
		h.Exact1++
	default:
		idx := int(v / h.BinWidth)
		if idx >= len(h.Interior) {
			idx = len(h.Interior) - 1
		}
		h.Interior[idx]++
	}
	h.Total++
}

// FracStable0 returns the fraction of exactly-0.00 measurements.
func (h *SoftHistogram) FracStable0() float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Exact0) / float64(h.Total)
}

// FracStable1 returns the fraction of exactly-1.00 measurements.
func (h *SoftHistogram) FracStable1() float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Exact1) / float64(h.Total)
}

// Render draws an ASCII version of the histogram, one row per bin, with the
// end bins labeled as the paper labels them.
func (h *SoftHistogram) Render(width int) string {
	if width <= 0 {
		width = 50
	}
	maxCount := h.Exact0
	if h.Exact1 > maxCount {
		maxCount = h.Exact1
	}
	for _, c := range h.Interior {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount == 0 {
		maxCount = 1
	}
	var b strings.Builder
	bar := func(label string, count int) {
		n := count * width / maxCount
		fmt.Fprintf(&b, "%-12s %8d  %s\n", label, count, strings.Repeat("#", n))
	}
	bar("=0.00", h.Exact0)
	for i, c := range h.Interior {
		lo := float64(i) * h.BinWidth
		hi := lo + h.BinWidth
		if hi > 1 {
			hi = 1
		}
		bar(fmt.Sprintf("(%.2f,%.2f)", lo, hi), c)
	}
	bar("=1.00", h.Exact1)
	return b.String()
}

// ValueHistogram is a plain fixed-bin histogram over an arbitrary range,
// used for the model-prediction distributions of Figs 8/9/11 (which extend
// beyond [0, 1]).
type ValueHistogram struct {
	Lo, Hi   float64
	BinWidth float64
	Counts   []int
	Below    int // values < Lo
	Above    int // values > Hi
	Total    int
}

// NewValueHistogram covers [lo, hi] with the given bin width.
func NewValueHistogram(lo, hi, binWidth float64) *ValueHistogram {
	if hi <= lo || binWidth <= 0 {
		panic("stats: invalid value-histogram range")
	}
	n := int(math.Ceil((hi - lo) / binWidth))
	return &ValueHistogram{Lo: lo, Hi: hi, BinWidth: binWidth, Counts: make([]int, n)}
}

// Add records one value.
func (h *ValueHistogram) Add(v float64) {
	h.Total++
	switch {
	case v < h.Lo:
		h.Below++
	case v > h.Hi:
		h.Above++
	default:
		idx := int((v - h.Lo) / h.BinWidth)
		if idx >= len(h.Counts) {
			idx = len(h.Counts) - 1
		}
		h.Counts[idx]++
	}
}

// ExpFit fits frac ≈ A·baseⁿ by least squares on log(frac); points with
// frac ≤ 0 are skipped.  It returns the base, the prefactor A, and the
// number of points used.  This is how the 0.800ⁿ/0.545ⁿ/0.342ⁿ annotations
// of Figs 3 and 12 are produced.
func ExpFit(ns []int, fracs []float64) (base, prefactor float64, used int) {
	if len(ns) != len(fracs) {
		panic("stats: ExpFit length mismatch")
	}
	// Least squares on log frac = log A + n·log base.
	var sx, sy, sxx, sxy float64
	for i, n := range ns {
		if fracs[i] <= 0 {
			continue
		}
		x := float64(n)
		y := math.Log(fracs[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		used++
	}
	if used < 2 {
		return 0, 0, used
	}
	fn := float64(used)
	slope := (fn*sxy - sx*sy) / (fn*sxx - sx*sx)
	intercept := (sy - slope*sx) / fn
	return math.Exp(slope), math.Exp(intercept), used
}
