package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"xorpuf/internal/challenge"
	"xorpuf/internal/linalg"
	"xorpuf/internal/rng"
)

// kernelBytes is the selector's resident table memory.
func (s *Selector) kernelBytes() int {
	n := 0
	for _, g := range s.groups {
		n += len(g.tab) * len(g.tab[0]) * len(g.tab[0][0]) * 8
	}
	return n
}

// kernelModelN is a synthetic n-member model built like kernelModel.
func kernelModelN(seed uint64, n, stages int) *ChipModel {
	cm := &ChipModel{Beta0: 0.9, Beta1: 1.1}
	for len(cm.PUFs) < n {
		cm.PUFs = append(cm.PUFs, kernelModel(seed, stages).PUFs...)
		seed++
	}
	cm.PUFs = cm.PUFs[:n]
	return cm
}

// TestSelectorKernelFootprint gates the kernel's table bytes per chip: 8
// KiB per group of three members per 32 stages.
func TestSelectorKernelFootprint(t *testing.T) {
	const KiB = 1024
	for _, tc := range []struct{ n, k, max int }{
		{4, 32, 16 * KiB}, {10, 32, 32 * KiB}, {12, 32, 32 * KiB},
		{4, 64, 32 * KiB}, {10, 64, 64 * KiB}, {12, 64, 64 * KiB},
	} {
		got := NewSelector(kernelModelN(1, tc.n, tc.k), rng.New(1)).kernelBytes()
		if got > tc.max {
			t.Errorf("n = %d, k = %d: %d table bytes per chip, gate %d", tc.n, tc.k, got, tc.max)
		}
		t.Logf("n = %d, k = %d: %d KiB", tc.n, tc.k, got/KiB)
	}
}

// TestSelectorKernelLaneEdges pins the integer band where it is tightest
// and the thresholds where they leave the lanes.  The worst-rounding
// models make each of the m + 1 roundings for word 0 move its lane by ½
// the same way, so the lane sits (m+1)/2 from S·Dot, under one unit inside
// the margin E; thresholds on and one ulp beside Dot must still classify
// as the reference does.  The far models put β-scaled thresholds beyond
// the lane range on either side.
func TestSelectorKernelLaneEdges(t *testing.T) {
	phi := make([]float64, MaxStages+1)
	check := func(name string, cm *ChipModel, w uint64) {
		t.Helper()
		bit, ok := NewSelector(cm, rng.New(1)).classify(w)
		wantBit, wantOK := refClassify(cm, w, phi[:cm.Stages()+1])
		if ok != wantOK || (ok && bit != wantBit) {
			t.Fatalf("%s: word %#x: kernel (%d, %v), reference (%d, %v)", name, w, bit, ok, wantBit, wantOK)
		}
	}
	single := func(theta []float64, lo, hi float64) *ChipModel {
		return &ChipModel{PUFs: []*PUFModel{{Theta: theta, Thr0: lo, Thr1: hi}}, Beta0: 1, Beta1: 1}
	}

	for _, k := range []int{32, 64} {
		for _, sign := range []float64{1, -1} {
			// S = 1, as Σ|θ| lies in [2¹⁶, 2¹⁷), and every table entry
			// word 0 reads, like θ_k, is an odd integer and a half, which
			// rounding to nearest even moves ½ away from zero.
			theta := make([]float64, k+1)
			for i := range theta[:k] {
				theta[i] = float64(96000/k + i)
			}
			for j := 0; j < k; j += 8 {
				var sum float64
				for _, th := range theta[j : j+8] {
					sum += th
				}
				theta[j] += 0.5 + float64(1-int(sum)%2)
			}
			theta[k] = 1001.5
			linalg.Scale(sign, theta)
			challenge.FeaturesInto(challenge.FromWord(0, k), phi[:k+1])
			d := linalg.Dot(theta, phi[:k+1])
			g := &NewSelector(single(theta, 0, 0), rng.New(1)).groups[0]
			if got, want := laneApprox(g.sum(0), 0, theta)-d, sign*float64(k/8+1)/2; got != want {
				t.Fatalf("k = %d: lane off S·Dot by %v, want the worst case %v", k, got, want)
			}
			near := []float64{math.Nextafter(d, math.Inf(-1)), d, math.Nextafter(d, math.Inf(1))}
			for _, lo := range near {
				for _, hi := range near {
					check(fmt.Sprintf("k = %d sign %v thresholds (%v, %v)", k, sign, lo, hi), single(theta, lo, hi), 0)
				}
			}
		}
	}

	base := kernelModel(99, 32).PUFs[0]
	var mass float64
	for _, th := range base.Theta {
		mass += math.Abs(th)
	}
	far := []float64{-math.MaxFloat64, -1e300, -8 * mass, -mass / 4, 0, mass / 4, 8 * mass, 1e300, math.MaxFloat64}
	src := rng.New(8).Split("far-words")
	for _, lo := range far {
		for _, hi := range far {
			cm := single(base.Theta, lo, hi)
			for i := 0; i < 64; i++ {
				check(fmt.Sprintf("thresholds (%v, %v)", lo, hi), cm, src.Uint64()&0xFFFFFFFF)
			}
		}
	}
}

// TestSelectorNextCount checks the counts that draw nothing: a negative
// count or one above maxNextCount is an error, with or without a budget
// or a search cap, and a zero count an empty success; none of them
// examines, issues or draws.  maxNextCount itself is served under a
// search cap of one candidate.
func TestSelectorNextCount(t *testing.T) {
	sel := NewSelector(kernelModel(3, 32), rng.New(9))
	want := *sel.src
	for _, budget := range []int{0, 5} {
		sel.SetBudget(budget)
		for _, count := range []int{-1, math.MinInt, maxNextCount + 1, math.MaxInt/10000 + 1, math.MaxInt} {
			for _, maxExamined := range []int{0, 1000} {
				if cs, bits, err := sel.Next(count, maxExamined); err == nil || cs != nil || bits != nil {
					t.Errorf("budget %d: Next(%d, %d) = %v, %v, %v; want an error", budget, count, maxExamined, cs, bits, err)
				}
			}
		}
		for _, maxExamined := range []int{0, 1000} {
			if cs, bits, err := sel.Next(0, maxExamined); err != nil || len(cs) != 0 || len(bits) != 0 {
				t.Errorf("budget %d: Next(0, %d) = %v, %v, %v; want nothing and no error", budget, maxExamined, cs, bits, err)
			}
		}
	}
	if sel.Examined() != 0 || sel.Issued() != 0 {
		t.Errorf("examined %d, issued %d; want 0 and 0", sel.Examined(), sel.Issued())
	}
	got := *sel.src
	if g, w := got.Uint64(), want.Uint64(); g != w {
		t.Errorf("next rng draw %#x, want %#x: the calls drew candidates", g, w)
	}

	sel.SetBudget(0)
	cs, _, err := sel.Next(maxNextCount, 1)
	var ex *ErrSelectionExhausted
	if !errors.As(err, &ex) || ex.Examined != 1 || len(cs) != ex.Found || sel.Examined() != 1 {
		t.Errorf("Next(maxNextCount, 1) = %d words, %v after examining %d; want exhaustion after 1", len(cs), err, sel.Examined())
	}
}

// fuzzReader hands out the fuzz input a byte at a time, then zeros.
type fuzzReader []byte

func (r *fuzzReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	c := (*r)[0]
	*r = (*r)[1:]
	return c
}

func (r *fuzzReader) u64() uint64 {
	var w uint64
	for i := 0; i < 8; i++ {
		w |= uint64(r.byte()) << (8 * i)
	}
	return w
}

// fuzzValue decodes a value from two bytes: mostly a normal float in one
// of 58 binades from 2⁻⁴¹ to 2¹⁷, else zero, tiny, huge, NaN or ±Inf.
func fuzzValue(e, m byte) float64 {
	x := (float64(m) - 127.5) / 128
	switch e % 64 {
	case 58:
		return 0
	case 59:
		return math.Ldexp(x, -1040)
	case 60:
		return math.Ldexp(x, 1000)
	case 61:
		return math.NaN()
	case 62:
		return math.Inf(1)
	case 63:
		return math.Inf(-1)
	}
	return math.Ldexp(x, int(e%64)-40)
}

// FuzzSelectorKernel decodes a model from the input: 1–64 stages, 1–7
// members (so short groups and the one-lane group occur), θ across
// binades with zero, tiny, huge, NaN and ±Inf entries, and per member
// thresholds on, one ulp beside or at a fuzzed offset from linalg.Dot's
// prediction of a fuzzed word.  It runs the sieve on a block holding that
// word, its one-bit neighbours and random words, and demands the
// reference's verdict and bit for every slot.
func FuzzSelectorKernel(f *testing.F) {
	seeds := rng.New(4).Split("fuzz-seeds")
	for _, shape := range [][2]byte{{31, 2}, {63, 6}, {0, 0}, {4, 3}, {32, 4}, {40, 5}} {
		in := []byte{shape[0], shape[1], 0}
		for i := 0; i < 600; i++ {
			in = append(in, byte(seeds.Uint64()))
		}
		// Keep θ in a few neighbouring binades for most seeds.
		for i := 12; i < len(in); i += 2 {
			in[i] = 28 + in[i]%6
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		k := 1 + int(r.byte()%MaxStages)
		n := 1 + int(r.byte()%7)
		beta := r.byte()%2 == 1
		mask := ^uint64(0) >> (64 - k)
		w0 := r.u64() & mask
		phi := make([]float64, k+1)
		challenge.FeaturesInto(challenge.FromWord(w0, k), phi)
		cm := &ChipModel{Beta0: 1, Beta1: 1}
		if beta {
			cm.Beta0, cm.Beta1 = 0.75, 1.25
		}
		place := func(d float64) float64 {
			switch c := r.byte(); c % 4 {
			case 0:
				return d
			case 1:
				return math.Nextafter(d, math.Inf(-1))
			case 2:
				return math.Nextafter(d, math.Inf(1))
			}
			return d + fuzzValue(r.byte(), r.byte())
		}
		for i := 0; i < n; i++ {
			theta := make([]float64, k+1)
			for j := range theta {
				theta[j] = fuzzValue(r.byte(), r.byte())
			}
			d := linalg.Dot(theta, phi)
			cm.PUFs = append(cm.PUFs, &PUFModel{Theta: theta, Thr0: place(d) / cm.Beta0, Thr1: place(d) / cm.Beta1})
		}

		words := make([]uint64, sieveBlock)
		words[0] = w0
		src := rng.New(r.u64())
		for j := 1; j < len(words); j++ {
			if j <= k {
				words[j] = w0 ^ 1<<(j-1)
			} else {
				words[j] = src.Uint64() & mask
			}
		}
		var p [sieveBlock]uint64
		var idx, bit [sieveBlock]uint8
		for j, w := range words {
			p[j], idx[j] = suffixParity(w), uint8(j)
		}
		sel := NewSelector(cm, rng.New(1))
		n = sel.sieve(p[:], idx[:], bit[:])
		next := 0
		for j, w := range words {
			wantBit, wantOK := refClassify(cm, w, phi)
			ok := next < n && int(idx[next]) == j
			if ok {
				next++
			}
			if ok != wantOK || (ok && bit[j] != wantBit) {
				t.Fatalf("k = %d, %d members, slot %d word %#x: kernel (%d, %v), reference (%d, %v)",
					k, len(cm.PUFs), j, w, bit[j], ok, wantBit, wantOK)
			}
		}
	})
}

// selectorSink keeps BenchmarkNewSelector's result alive.
var selectorSink *Selector

// BenchmarkNewSelector times building a selector for one n = 10 and one
// n = 12 chip enrolled across the V/T corners: the cost a registry pays
// per chip whose selector is not resident.
func BenchmarkNewSelector(b *testing.B) {
	cm, err := vtSweepModel()
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{10, 12} {
		model := cm.Narrow(n)
		b.Run(fmt.Sprintf("vt-n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				selectorSink = NewSelector(model, nil)
			}
		})
	}
}
