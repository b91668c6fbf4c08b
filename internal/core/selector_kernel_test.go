package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"xorpuf/internal/challenge"
	"xorpuf/internal/linalg"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
)

// refSelector is the per-candidate selection loop the table-driven kernel
// replaced: one Challenge, one Word() pack, one used-set probe and one
// feature vector per examined candidate.  It is the reference the kernel
// must match word for word.
type refSelector struct {
	model    *ChipModel
	src      *rng.Source
	used     map[uint64]struct{}
	budget   int
	phi      []float64
	examined int
}

func (s *refSelector) Next(count, maxExamined int) ([]challenge.Challenge, []uint8, error) {
	if s.budget > 0 && len(s.used)+count > s.budget {
		return nil, nil, &ErrBudgetExhausted{Budget: s.budget, Issued: len(s.used), Wanted: count}
	}
	if maxExamined <= 0 {
		maxExamined = 10000 * count
	}
	cs := make([]challenge.Challenge, 0, count)
	bits := make([]uint8, 0, count)
	if len(s.phi) != challenge.FeatureDim(s.model.Stages()) {
		s.phi = make([]float64, challenge.FeatureDim(s.model.Stages()))
	}
	examined := 0
	for len(cs) < count && examined < maxExamined {
		c := challenge.Random(s.src, s.model.Stages())
		examined++
		key := c.Word()
		if _, dup := s.used[key]; dup {
			continue
		}
		challenge.FeaturesInto(c, s.phi)
		bit, stable := s.model.PredictXORFeatures(s.phi)
		if !stable {
			continue
		}
		s.used[key] = struct{}{}
		cs = append(cs, c)
		bits = append(bits, bit)
	}
	s.examined += examined
	if len(cs) < count {
		return cs, bits, &ErrSelectionExhausted{Wanted: count, Found: len(cs), Examined: examined}
	}
	return cs, bits, nil
}

// vtSweepModel enrolls one 12-PUF chip across the paper's V/T corners the
// way the benchmark's width sweep does, once per test binary.  -short
// validates β on fewer challenges, which keeps race-enabled runs quick.
var vtSweepModel = sync.OnceValues(func() (*ChipModel, error) {
	chip := silicon.NewChip(rng.New(1).Fork("chip", 0), silicon.DefaultParams(), 12)
	cfg := DefaultEnrollConfig()
	cfg.Conditions = silicon.Corners()
	if testing.Short() {
		cfg.ValidationSize = 5000
	}
	enr, err := EnrollChip(chip, rng.New(1).Fork("enroll", 0), cfg)
	if err != nil {
		return nil, err
	}
	return enr.Model, nil
})

// kernelModel is a synthetic three-member model whose θ magnitudes span
// several binades, so the kernel's and Dot's summation orders round
// differently, with thresholds that keep a few percent of candidates
// stable.
func kernelModel(seed uint64, stages int) *ChipModel {
	src := rng.New(seed).Split("kernel-model")
	cm := &ChipModel{Beta0: 0.9, Beta1: 1.1}
	for p := 0; p < 3; p++ {
		theta := make([]float64, stages+1)
		scale := 0.8 / math.Sqrt(float64(stages))
		for i := range theta[:stages] {
			theta[i] = (src.Float64() - 0.5) * math.Ldexp(scale, -src.Intn(6))
		}
		theta[stages] = 0.2 + 0.6*src.Float64()
		cm.PUFs = append(cm.PUFs, &PUFModel{Theta: theta, Thr0: 0.45, Thr1: 0.55})
	}
	return cm
}

// refClassify is the reference classification of one candidate word.
func refClassify(cm *ChipModel, w uint64, phi []float64) (uint8, bool) {
	challenge.FeaturesInto(challenge.FromWord(w, cm.Stages()), phi)
	return cm.PredictXORFeatures(phi)
}

type kernelCase struct {
	name       string
	model      func(t *testing.T) *ChipModel
	candidates int // per plain run; -short runs 1/100 of it
}

func kernelCases() []kernelCase {
	var cases []kernelCase
	for _, n := range []int{4, 8, 10, 12} {
		cases = append(cases, kernelCase{
			name: fmt.Sprintf("vt-n%d", n),
			model: func(t *testing.T) *ChipModel {
				cm, err := vtSweepModel()
				if err != nil {
					t.Fatalf("enrollment: %v", err)
				}
				return cm.Narrow(n)
			},
			candidates: 16_000_000,
		})
	}
	for _, k := range []int{1, 4, 5, 31, 32, 33, 63, 64} {
		cases = append(cases, kernelCase{
			name:       fmt.Sprintf("synthetic-k%d", k),
			model:      func(*testing.T) *ChipModel { return kernelModel(uint64(k), k) },
			candidates: 4_500_000,
		})
	}
	return cases
}

// TestSelectorKernelMatchesReference pins the kernel to the per-candidate
// reference: the classification of every candidate word (not only the
// survivors), and whole Next sequences — issued words, bits, Examined,
// both exhaustion errors and the rng position afterwards.  A plain run
// covers 10⁸ candidates; -short covers 10⁶.
func TestSelectorKernelMatchesReference(t *testing.T) {
	for _, tc := range kernelCases() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cm := tc.model(t)
			n := tc.candidates
			if testing.Short() {
				n /= 100
			}
			sel := NewSelector(cm, rng.New(7))
			src := rng.New(7).Split("candidates")
			phi := make([]float64, challenge.FeatureDim(cm.Stages()))
			stable := 0
			for i := 0; i < n; i++ {
				w := src.Uint64() & sel.mask
				bit, ok := sel.classify(w)
				wantBit, wantOK := refClassify(cm, w, phi)
				if ok != wantOK || (ok && bit != wantBit) {
					t.Fatalf("word %#x: kernel (%d, %v), reference (%d, %v)", w, bit, ok, wantBit, wantOK)
				}
				if ok {
					stable++
				}
			}
			// k = 1 has two words; every other model must show both
			// classes.
			if cm.Stages() > 1 && (stable == 0 || stable == n) {
				t.Errorf("%d of %d candidates stable: the comparison saw only one class", stable, n)
			}
			t.Logf("%d candidates, %.4f stable", n, float64(stable)/float64(n))
			compareNext(t, cm, 11)
		})
	}
}

// compareNext drives a kernel Selector and a refSelector on the same seed
// through ordinary calls, a tight search cap and a budget, and demands
// identical results at every step.
func compareNext(t *testing.T, cm *ChipModel, seed uint64) {
	t.Helper()
	sel := NewSelector(cm, rng.New(seed))
	ref := &refSelector{model: cm, src: rng.New(seed), used: make(map[uint64]struct{})}
	calls := []struct{ count, maxExamined, budget int }{
		{16, 0, 0}, {16, 0, 0}, {1, 0, 0}, {5, 40, 0}, {16, 2000, 0},
		{3, 0, 0}, {4, 0, 70}, {64, 0, 70}, {2, 0, 0},
	}
	for i, call := range calls {
		sel.SetBudget(call.budget)
		ref.budget = call.budget
		cs, bits, err := sel.Next(call.count, call.maxExamined)
		wantCs, wantBits, wantErr := ref.Next(call.count, call.maxExamined)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("call %d: err %v, reference %v", i, err, wantErr)
		}
		var ex *ErrSelectionExhausted
		var bx *ErrBudgetExhausted
		if errors.As(err, &ex) != errors.As(wantErr, &ex) || errors.As(err, &bx) != errors.As(wantErr, &bx) {
			t.Fatalf("call %d: error types differ: %T vs %T", i, err, wantErr)
		}
		if len(cs) != len(wantCs) || len(bits) != len(wantBits) {
			t.Fatalf("call %d: %d challenges, reference %d", i, len(cs), len(wantCs))
		}
		for j := range cs {
			if cs[j].String() != wantCs[j].String() || bits[j] != wantBits[j] {
				t.Fatalf("call %d challenge %d: %s/%d, reference %s/%d",
					i, j, cs[j], bits[j], wantCs[j], wantBits[j])
			}
		}
		if sel.Examined() != ref.examined || sel.Issued() != len(ref.used) {
			t.Fatalf("call %d: examined %d issued %d, reference %d and %d",
				i, sel.Examined(), sel.Issued(), ref.examined, len(ref.used))
		}
	}
	if got, want := sel.src.Uint64(), ref.src.Uint64(); got != want {
		t.Fatalf("next rng draw %#x, reference %#x: the streams diverged", got, want)
	}
}

// TestSelectorKernelFallbackBand builds thresholds that sit exactly on,
// or one ulp beside, the reference prediction of chosen words, so only
// the certified band's exact recomputation can classify them right, and
// models whose θ holds NaN, ±Inf or only zeros.  Every classification
// must equal the reference.
func TestSelectorKernelFallbackBand(t *testing.T) {
	const stages = 32
	base := kernelModel(99, stages).PUFs[0]
	src := rng.New(5).Split("band-words")
	phi := make([]float64, stages+1)
	mask := ^uint64(0) >> (64 - stages)

	check := func(cm *ChipModel, w uint64) {
		t.Helper()
		sel := NewSelector(cm, rng.New(1))
		bit, ok := sel.classify(w)
		wantBit, wantOK := refClassify(cm, w, phi)
		if ok != wantOK || (ok && bit != wantBit) {
			t.Fatalf("θ[0]=%v thr=(%v, %v) word %#x: kernel (%d, %v), reference (%d, %v)",
				cm.PUFs[0].Theta[0], cm.PUFs[0].Thr0, cm.PUFs[0].Thr1, w, bit, ok, wantBit, wantOK)
		}
	}

	inBand, naiveWrong := 0, 0
	for i := 0; i < 2000; i++ {
		w := src.Uint64() & mask
		challenge.FeaturesInto(challenge.FromWord(w, stages), phi)
		d := linalg.Dot(base.Theta, phi)
		near := []float64{math.Nextafter(d, math.Inf(-1)), d, math.Nextafter(d, math.Inf(1))}
		for _, thr0 := range near {
			for _, thr1 := range near {
				m := &PUFModel{Theta: base.Theta, Thr0: thr0, Thr1: thr1}
				cm := &ChipModel{PUFs: []*PUFModel{m}, Beta0: 1, Beta1: 1}
				check(cm, w)

				mk := NewSelector(cm, rng.New(1)).members[0]
				approx := mk.approx(suffixParity(w))
				if math.Abs(approx-mk.lo) <= mk.eps || math.Abs(approx-mk.hi) <= mk.eps {
					inBand++
				}
				if m.Classify(approx, 1, 1) != m.Classify(d, 1, 1) {
					naiveWrong++
				}
			}
		}
	}
	if inBand != 2000*9 {
		t.Errorf("band fired on %d of %d threshold placements, want all", inBand, 2000*9)
	}
	if naiveWrong == 0 {
		t.Error("no placement where trusting the table sum would misclassify: the test does not exercise the band")
	}

	special := map[string]func(theta []float64){
		"nan":      func(th []float64) { th[3] = math.NaN() },
		"+inf":     func(th []float64) { th[17] = math.Inf(1) },
		"-inf":     func(th []float64) { th[0] = math.Inf(-1) },
		"inf-inf":  func(th []float64) { th[1], th[30] = math.Inf(1), math.Inf(1) },
		"bias-nan": func(th []float64) { th[stages] = math.NaN() },
		"zero":     func(th []float64) { clear(th) },
		"tiny":     func(th []float64) { linalg.Scale(0x1p-1000, th) },
		"huge":     func(th []float64) { linalg.Scale(0x1p1010, th) },
	}
	thresholds := [][2]float64{
		{0.45, 0.55}, {0, 0}, {math.Inf(-1), math.Inf(1)}, {math.NaN(), 0.5},
		{0.5, math.NaN()}, {math.Inf(1), math.Inf(-1)}, {0.55, 0.45},
	}
	for name, mutate := range special {
		theta := append([]float64(nil), base.Theta...)
		mutate(theta)
		for _, thr := range thresholds {
			m := &PUFModel{Theta: theta, Thr0: thr[0], Thr1: thr[1]}
			cm := &ChipModel{PUFs: []*PUFModel{m, base}, Beta0: 1, Beta1: 1}
			for i := 0; i < 200; i++ {
				check(cm, src.Uint64()&mask)
			}
			if mk := NewSelector(cm, rng.New(1)).members[0]; mk.eps >= 0 {
				t.Errorf("%s θ with thresholds %v took the certified path", name, thr)
			}
		}
	}
}

// TestNewSelectorGeometryGuard checks the geometries the kernel refuses:
// more than MaxStages stages and members of differing length.
func TestNewSelectorGeometryGuard(t *testing.T) {
	mustPanic := func(name string, cm *ChipModel) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: NewSelector did not panic", name)
			}
		}()
		NewSelector(cm, rng.New(1))
	}
	mustPanic("65 stages", kernelModel(1, 65))
	mixed := kernelModel(1, 32)
	mixed.PUFs[1] = kernelModel(2, 31).PUFs[1]
	mustPanic("mixed θ lengths", mixed)
	mustPanic("empty", &ChipModel{})
	NewSelector(kernelModel(1, 64), rng.New(1)) // the widest supported geometry
	if _, err := Authenticate(kernelModel(1, 65), nil, rng.New(1), 1, silicon.Nominal); err == nil {
		t.Error("Authenticate on 65 stages succeeded")
	}
}

// BenchmarkSelectorNext times one 16-challenge session's selection at the
// paper's secure width: n = 10, β hardened across the V/T corners.
func BenchmarkSelectorNext(b *testing.B) {
	chip := silicon.NewChip(rng.New(3), silicon.DefaultParams(), 10)
	cfg := DefaultEnrollConfig()
	cfg.Conditions = silicon.Corners()
	enr, err := EnrollChip(chip, rng.New(4), cfg)
	if err != nil {
		b.Fatal(err)
	}
	sel := NewSelector(enr.Model, rng.New(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sel.Next(16, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sel.Examined())/float64(b.N), "candidates/op")
}
