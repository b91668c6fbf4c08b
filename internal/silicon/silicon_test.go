package silicon

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"xorpuf/internal/challenge"
	"xorpuf/internal/dist"
	"xorpuf/internal/rng"
)

func newTestPUF(seed uint64) *ArbiterPUF {
	return NewArbiterPUF(rng.New(seed), DefaultParams())
}

func TestStructuralMatchesLinearModel(t *testing.T) {
	// The closed-form w·Φ evaluation must agree with the stage-by-stage
	// race for every challenge — the additive model is exact, not a fit.
	puf := newTestPUF(1)
	src := rng.New(2)
	for trial := 0; trial < 2000; trial++ {
		c := challenge.Random(src, puf.Stages())
		lin := puf.Delay(c, Nominal)
		str := puf.StructuralDelay(c, Nominal)
		if math.Abs(lin-str) > 1e-9 {
			t.Fatalf("linear %v != structural %v for %v", lin, str, c)
		}
	}
}

func TestStructuralMatchesLinearAcrossConditions(t *testing.T) {
	puf := newTestPUF(3)
	src := rng.New(4)
	for _, cond := range Corners() {
		for trial := 0; trial < 200; trial++ {
			c := challenge.Random(src, puf.Stages())
			lin := puf.Delay(c, cond)
			str := puf.StructuralDelay(c, cond)
			if math.Abs(lin-str) > 1e-9 {
				t.Fatalf("at %v: linear %v != structural %v", cond, lin, str)
			}
		}
	}
}

// branchingDelay is Delay's linear evaluation with a branch on every stage
// bit: the running sign flips on each 1 and multiplies the stage weight.
// It is the reference the branch-free Delay must match bit for bit.
func branchingDelay(p *ArbiterPUF, c challenge.Challenge, cond Condition) float64 {
	dv := cond.VDD - Nominal.VDD
	dt := cond.TempC - Nominal.TempC
	k := p.params.Stages
	sum := p.wNom[k] + p.wVol[k]*dv + p.wTmp[k]*dt
	acc := 1.0
	for i := k - 1; i >= 0; i-- {
		if c[i] == 1 {
			acc = -acc
		}
		w := p.wNom[i] + p.wVol[i]*dv + p.wTmp[i]*dt
		sum += w * acc
	}
	return sum
}

func TestDelayMatchesBranchingReference(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	for _, k := range []int{1, 2, 31, 32, 33, 64} {
		params := DefaultParams()
		params.Stages = k
		fresh := NewArbiterPUF(rng.New(uint64(k)), params)
		aged := NewArbiterPUF(rng.New(uint64(k)), params)
		aged.Age(rng.New(uint64(k)+100), 0.5)
		src := rng.New(uint64(k) + 200)
		for i := 0; i < n; i++ {
			c := challenge.Random(src, k)
			for _, cond := range Corners() {
				for _, p := range []*ArbiterPUF{fresh, aged} {
					got, want := p.Delay(c, cond), branchingDelay(p, c, cond)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("k=%d aged=%v %v challenge %v: Delay %v (%#x), reference %v (%#x)",
							k, p == aged, cond, c, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

func TestDelayMatchesWeightsDotFeatures(t *testing.T) {
	puf := newTestPUF(5)
	w := puf.Weights(Nominal)
	if err := quick.Check(func(word uint32) bool {
		c := challenge.FromWord(uint64(word), puf.Stages())
		phi := challenge.Features(c)
		var dot float64
		for i := range w {
			dot += w[i] * phi[i]
		}
		return math.Abs(dot-puf.Delay(c, Nominal)) < 1e-9
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestWeightsConditionLinearity(t *testing.T) {
	// w(cond) must be affine in (ΔV, ΔT): w(v,t) + w(nom) == w(v,nom) + w(nom,t).
	puf := newTestPUF(6)
	a := puf.Weights(Condition{VDD: 1.0, TempC: 60})
	b := puf.Weights(Nominal)
	c := puf.Weights(Condition{VDD: 1.0, TempC: 25})
	d := puf.Weights(Condition{VDD: 0.9, TempC: 60})
	for i := range a {
		if math.Abs((a[i]+b[i])-(c[i]+d[i])) > 1e-12 {
			t.Fatalf("weights not affine in condition at index %d", i)
		}
	}
}

func TestSingleBitSensitivity(t *testing.T) {
	// Flipping one challenge bit changes the delay (with probability 1
	// over process variation) — the PUF actually depends on its input.
	puf := newTestPUF(7)
	src := rng.New(8)
	c := challenge.Random(src, puf.Stages())
	base := puf.Delay(c, Nominal)
	for i := 0; i < puf.Stages(); i++ {
		c2 := c.Clone()
		c2[i] ^= 1
		if puf.Delay(c2, Nominal) == base {
			t.Fatalf("flipping bit %d left delay unchanged", i)
		}
	}
}

func TestResponseProbabilityMonotoneInDelay(t *testing.T) {
	puf := newTestPUF(9)
	src := rng.New(10)
	type pair struct{ d, p float64 }
	var pairs []pair
	for i := 0; i < 500; i++ {
		c := challenge.Random(src, puf.Stages())
		pairs = append(pairs, pair{puf.Delay(c, Nominal), puf.ResponseProbability(c, Nominal)})
	}
	for _, a := range pairs[:50] {
		for _, b := range pairs[:50] {
			if a.d < b.d && a.p > b.p+1e-12 {
				t.Fatalf("probability not monotone: Δ=%v p=%v vs Δ=%v p=%v", a.d, a.p, b.d, b.p)
			}
		}
	}
}

func TestCalibratedStableFraction(t *testing.T) {
	// The headline calibration: ~80 % of random challenges must be
	// 100 %-stable over the 100,000-deep counter at nominal (Fig 2).
	// Use the exact per-challenge stability probability so the check is
	// a mean over 20k challenges, not a noisy counter simulation.
	params := DefaultParams()
	src := rng.New(11)
	var sum float64
	const nChips, nChallenges = 5, 4000
	for chipIdx := 0; chipIdx < nChips; chipIdx++ {
		puf := NewArbiterPUF(src.Fork("chip", chipIdx), params)
		cs := rng.New(uint64(100 + chipIdx))
		for i := 0; i < nChallenges; i++ {
			c := challenge.Random(cs, params.Stages)
			sum += puf.StabilityProbability(c, Nominal, params.CounterDepth)
		}
	}
	frac := sum / (nChips * nChallenges)
	if frac < 0.78 || frac > 0.82 {
		t.Errorf("stable fraction = %.4f, want ~0.80 (Fig 2 calibration)", frac)
	}
}

func TestStableSplitRoughlySymmetric(t *testing.T) {
	// Stable-0 and stable-1 fractions should average near 40 % each
	// (paper: 39.7 % / 40.1 %).  A single chip's arbiter bias skews its
	// own split by several points, so average over a small lot.
	params := DefaultParams()
	seedStream := rng.New(12)
	var s0, s1, total int
	const chips, n = 8, 5000
	for chipIdx := 0; chipIdx < chips; chipIdx++ {
		puf := NewArbiterPUF(seedStream.Fork("chip", chipIdx), params)
		src := seedStream.Fork("challenges", chipIdx)
		meas := seedStream.Fork("meas", chipIdx)
		for i := 0; i < n; i++ {
			c := challenge.Random(src, params.Stages)
			soft := puf.MeasureSoft(meas, c, Nominal, params.CounterDepth)
			switch soft {
			case 0:
				s0++
			case 1:
				s1++
			}
			total++
		}
	}
	f0, f1 := float64(s0)/float64(total), float64(s1)/float64(total)
	if f0 < 0.34 || f0 > 0.46 || f1 < 0.34 || f1 > 0.46 {
		t.Errorf("stable split %.3f/%.3f, want ≈0.40/0.40", f0, f1)
	}
}

func TestMeasureSoftMatchesProbability(t *testing.T) {
	// Repeated soft measurements of one challenge must average to the
	// exact response probability.
	puf := newTestPUF(15)
	src := rng.New(16)
	meas := rng.New(17)
	// Find a moderately unstable challenge so the binomial has spread.
	var c challenge.Challenge
	for {
		c = challenge.Random(src, puf.Stages())
		p := puf.ResponseProbability(c, Nominal)
		if p > 0.2 && p < 0.8 {
			break
		}
	}
	p := puf.ResponseProbability(c, Nominal)
	const reps = 200
	var sum float64
	for i := 0; i < reps; i++ {
		sum += puf.MeasureSoft(meas, c, Nominal, 1000)
	}
	got := sum / reps
	se := math.Sqrt(p * (1 - p) / (1000 * reps))
	if math.Abs(got-p) > 6*se+1e-3 {
		t.Errorf("mean soft response %v, want %v (±%v)", got, p, 6*se)
	}
}

func TestEvalMatchesProbability(t *testing.T) {
	puf := newTestPUF(18)
	src := rng.New(19)
	noise := rng.New(20)
	var c challenge.Challenge
	for {
		c = challenge.Random(src, puf.Stages())
		if p := puf.ResponseProbability(c, Nominal); p > 0.3 && p < 0.7 {
			break
		}
	}
	p := puf.ResponseProbability(c, Nominal)
	const n = 50000
	ones := 0
	for i := 0; i < n; i++ {
		ones += int(puf.Eval(noise, c, Nominal))
	}
	got := float64(ones) / n
	if math.Abs(got-p) > 0.02 {
		t.Errorf("empirical P(1) = %v, want %v", got, p)
	}
}

func TestNoiseGrowsAtLowVoltageHighTemp(t *testing.T) {
	params := DefaultParams()
	nominal := params.NoiseSigmaAt(Nominal)
	lowV := params.NoiseSigmaAt(Condition{VDD: 0.8, TempC: 25})
	highT := params.NoiseSigmaAt(Condition{VDD: 0.9, TempC: 60})
	if lowV <= nominal {
		t.Errorf("noise at 0.8V (%v) should exceed nominal (%v)", lowV, nominal)
	}
	if highT <= nominal {
		t.Errorf("noise at 60°C (%v) should exceed nominal (%v)", highT, nominal)
	}
}

func TestStabilityDropsAcrossCorners(t *testing.T) {
	// A challenge that is stable at nominal can flip at corners; the
	// aggregate stable fraction across all 9 corners must be lower than
	// the nominal one.
	params := DefaultParams()
	puf := NewArbiterPUF(rng.New(21), params)
	src := rng.New(22)
	const n = 4000
	var nominalStable, allCornerStable float64
	for i := 0; i < n; i++ {
		c := challenge.Random(src, params.Stages)
		pn := puf.StabilityProbability(c, Nominal, params.CounterDepth)
		nominalStable += pn
		all := 1.0
		for _, cond := range Corners() {
			all *= puf.StabilityProbability(c, cond, params.CounterDepth)
		}
		allCornerStable += all
	}
	if allCornerStable >= nominalStable {
		t.Errorf("all-corner stability (%v) should be below nominal (%v)",
			allCornerStable/n, nominalStable/n)
	}
	if allCornerStable/n < 0.3 {
		t.Errorf("all-corner stable fraction %.3f implausibly low; V/T sensitivities miscalibrated",
			allCornerStable/n)
	}
}

func TestConditionString(t *testing.T) {
	if got := Nominal.String(); got != "0.9V, 25°C" {
		t.Errorf("Nominal.String() = %q", got)
	}
}

func TestCornersCount(t *testing.T) {
	cs := Corners()
	if len(cs) != 9 {
		t.Fatalf("got %d corners, want 9", len(cs))
	}
	seen := map[Condition]bool{}
	for _, c := range cs {
		if seen[c] {
			t.Fatalf("duplicate corner %v", c)
		}
		seen[c] = true
	}
	if !seen[Nominal] {
		t.Error("nominal condition missing from corners")
	}
}

func TestChipFuseLifecycle(t *testing.T) {
	params := DefaultParams()
	chip := NewChip(rng.New(23), params, 4)
	c := challenge.Random(rng.New(24), params.Stages)
	if _, err := chip.ReadIndividual(0, c, Nominal); err != nil {
		t.Fatalf("pre-fuse individual read failed: %v", err)
	}
	if _, err := chip.SoftResponse(1, c, Nominal); err != nil {
		t.Fatalf("pre-fuse soft response failed: %v", err)
	}
	chip.BlowFuses()
	if !chip.FusesBlown() {
		t.Fatal("FusesBlown should report true")
	}
	if _, err := chip.ReadIndividual(0, c, Nominal); !errors.Is(err, ErrFusesBlown) {
		t.Fatalf("post-fuse individual read: err = %v, want ErrFusesBlown", err)
	}
	if _, err := chip.SoftResponse(0, c, Nominal); !errors.Is(err, ErrFusesBlown) {
		t.Fatalf("post-fuse soft response: err = %v, want ErrFusesBlown", err)
	}
	// XOR output must remain available.
	_ = chip.ReadXOR(c, Nominal)
}

func TestReadXORMatchesIndividualXOR(t *testing.T) {
	// On a stable challenge, the XOR read equals the XOR of the
	// individual sign bits.
	params := DefaultParams()
	chip := NewChip(rng.New(25), params, 6)
	src := rng.New(26)
	checked := 0
	for checked < 50 {
		c := challenge.Random(src, params.Stages)
		stable := true
		var want uint8
		for i := 0; i < chip.NumPUFs(); i++ {
			p := chip.PUF(i).ResponseProbability(c, Nominal)
			if p > 1e-9 && p < 1-1e-9 {
				stable = false
				break
			}
			if p >= 0.5 {
				want ^= 1
			}
		}
		if !stable {
			continue
		}
		if got := chip.ReadXOR(c, Nominal); got != want {
			t.Fatalf("ReadXOR = %d, want %d", got, want)
		}
		checked++
	}
}

func TestReadXORSubsetConsistency(t *testing.T) {
	params := DefaultParams()
	chip := NewChip(rng.New(27), params, 5)
	c := challenge.Random(rng.New(28), params.Stages)
	// Width NumPUFs subset must follow the same distribution as ReadXOR;
	// check the deterministic part by using a fully stable challenge.
	src := rng.New(29)
	for {
		c = challenge.Random(src, params.Stages)
		allStable := true
		for i := 0; i < 5; i++ {
			p := chip.PUF(i).ResponseProbability(c, Nominal)
			if p > 1e-9 && p < 1-1e-9 {
				allStable = false
			}
		}
		if allStable {
			break
		}
	}
	if chip.ReadXORSubset(5, c, Nominal) != chip.ReadXOR(c, Nominal) {
		t.Fatal("full-width subset disagrees with ReadXOR on a stable challenge")
	}
}

func TestXORStabilityProduct(t *testing.T) {
	params := DefaultParams()
	chip := NewChip(rng.New(30), params, 3)
	c := challenge.Random(rng.New(31), params.Stages)
	want := 1.0
	for i := 0; i < 3; i++ {
		want *= chip.PUF(i).StabilityProbability(c, Nominal, params.CounterDepth)
	}
	if got := chip.XORStabilityProbability(3, c, Nominal); math.Abs(got-want) > 1e-15 {
		t.Errorf("XOR stability %v, want %v", got, want)
	}
}

func TestFabricateLotDistinctChips(t *testing.T) {
	lot := FabricateLot(rng.New(32), DefaultParams(), 10, 2)
	if len(lot) != 10 {
		t.Fatalf("lot size %d, want 10", len(lot))
	}
	// Chips must differ: compare ground-truth weights of PUF 0.
	w0 := lot[0].PUF(0).Weights(Nominal)
	w1 := lot[1].PUF(0).Weights(Nominal)
	same := true
	for i := range w0 {
		if w0[i] != w1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two fabricated chips share identical weights")
	}
}

func TestChipReproducibility(t *testing.T) {
	a := NewChip(rng.New(33), DefaultParams(), 3)
	b := NewChip(rng.New(33), DefaultParams(), 3)
	wa := a.PUF(2).Weights(Nominal)
	wb := b.PUF(2).Weights(Nominal)
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatal("same seed produced different chips")
		}
	}
}

func TestParamsValidate(t *testing.T) {
	bad := DefaultParams()
	bad.Stages = 0
	if bad.Validate() == nil {
		t.Error("zero stages should be invalid")
	}
	bad = DefaultParams()
	bad.CounterDepth = 0
	if bad.Validate() == nil {
		t.Error("zero counter depth should be invalid")
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
}

func TestUniquenessAcrossPUFs(t *testing.T) {
	// Inter-PUF response agreement on random challenges should be ~50 %
	// (uniqueness).  Any single pair deviates by ±(1/π)/√(k+1) ≈ ±4 %
	// from the angle between its weight vectors, so average over many
	// pairs.
	params := DefaultParams()
	seedStream := rng.New(34)
	const nPUFs, n = 10, 4000
	pufs := make([]*ArbiterPUF, nPUFs)
	for i := range pufs {
		pufs[i] = NewArbiterPUF(seedStream.Fork("puf", i), params)
	}
	src := rng.New(36)
	agree, total := 0, 0
	for i := 0; i < n; i++ {
		c := challenge.Random(src, params.Stages)
		resp := make([]bool, nPUFs)
		for j, p := range pufs {
			resp[j] = p.Delay(c, Nominal) > 0
		}
		for a := 0; a < nPUFs; a++ {
			for b := a + 1; b < nPUFs; b++ {
				if resp[a] == resp[b] {
					agree++
				}
				total++
			}
		}
	}
	frac := float64(agree) / float64(total)
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("mean inter-PUF agreement %.3f, want ≈0.5", frac)
	}
}

func TestUniformityOfResponses(t *testing.T) {
	// A single PUF's responses over random challenges should be ~50 % ones.
	params := DefaultParams()
	puf := NewArbiterPUF(rng.New(37), params)
	src := rng.New(38)
	ones := 0
	const n = 20000
	for i := 0; i < n; i++ {
		c := challenge.Random(src, params.Stages)
		if puf.Delay(c, Nominal) > 0 {
			ones++
		}
	}
	frac := float64(ones) / n
	if math.Abs(frac-0.5) > 0.05 {
		t.Errorf("uniformity %.3f, want ≈0.5", frac)
	}
}

func TestExpectedStableFractionAnalytic(t *testing.T) {
	// Cross-check the calibration constant against the closed-form
	// integral: E_z[AllAgree(T, Φ(z/r))] with z ~ N(0,1), r = σn/σΔ,
	// evaluated by quadrature, must be ≈ 0.80.
	params := DefaultParams()
	sigmaDelta := params.ProcessSigma * math.Sqrt(float64(2*params.Stages+1))
	r := params.NoiseSigma / sigmaDelta
	const steps = 20000
	var sum float64
	for i := 0; i < steps; i++ {
		z := -8 + 16*(float64(i)+0.5)/steps
		p := dist.NormalCDF(z / r)
		sum += dist.AllAgreeProbability(params.CounterDepth, p) *
			dist.NormalPDF(z) * 16 / steps
	}
	if sum < 0.79 || sum > 0.81 {
		t.Errorf("analytic stable fraction %.4f, want 0.80", sum)
	}
}

func BenchmarkDelay(b *testing.B) {
	puf := newTestPUF(1)
	c := challenge.Random(rng.New(2), puf.Stages())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = puf.Delay(c, Nominal)
	}
}

// BenchmarkDelayRandom evaluates a fresh random challenge each call, so no
// stage bit is predictable.
func BenchmarkDelayRandom(b *testing.B) {
	puf := newTestPUF(1)
	cs := challenge.RandomBatch(rng.New(2), 1024, puf.Stages())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = puf.Delay(cs[i&1023], Nominal)
	}
}

func BenchmarkSoftResponseCounter(b *testing.B) {
	// One full 100,000-deep counter measurement via the Binomial path.
	params := DefaultParams()
	puf := NewArbiterPUF(rng.New(3), params)
	src := rng.New(4)
	meas := rng.New(5)
	cs := challenge.RandomBatch(src, 1024, params.Stages)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = puf.MeasureSoft(meas, cs[i%len(cs)], Nominal, params.CounterDepth)
	}
}

func TestAgingShiftsDelaysButPreservesStructure(t *testing.T) {
	puf := newTestPUF(50)
	src := rng.New(51)
	c := challenge.Random(src, puf.Stages())
	before := puf.Delay(c, Nominal)
	puf.Age(rng.New(52), 0.2)
	after := puf.Delay(c, Nominal)
	if before == after {
		t.Error("aging left the delay unchanged")
	}
	// Structural and linear paths must still agree after aging.
	for i := 0; i < 200; i++ {
		cc := challenge.Random(src, puf.Stages())
		lin := puf.Delay(cc, Nominal)
		str := puf.StructuralDelay(cc, Nominal)
		if math.Abs(lin-str) > 1e-9 {
			t.Fatalf("post-aging mismatch: linear %v vs structural %v", lin, str)
		}
	}
}

func TestAgingZeroDriftIsNoOp(t *testing.T) {
	puf := newTestPUF(53)
	src := rng.New(54)
	c := challenge.Random(src, puf.Stages())
	before := puf.Delay(c, Nominal)
	puf.Age(rng.New(55), 0)
	if puf.Delay(c, Nominal) != before {
		t.Error("zero-drift aging changed the PUF")
	}
}

func TestAgingFlipsMarginalBeforeDeepChallenges(t *testing.T) {
	// Challenges with a large delay margin survive aging; marginal ones
	// flip first — the physical basis for preferring deep-margin CRPs.
	params := DefaultParams()
	src := rng.New(56)
	var deepFlips, marginalFlips, deepTotal, marginalTotal int
	for rep := 0; rep < 10; rep++ {
		puf := NewArbiterPUF(src.Fork("puf", rep), params)
		cs := src.Fork("cs", rep)
		type probe struct {
			c      challenge.Challenge
			margin float64
			bit    bool
		}
		var probes []probe
		for i := 0; i < 2000; i++ {
			c := challenge.Random(cs, params.Stages)
			d := puf.Delay(c, Nominal)
			probes = append(probes, probe{c: c, margin: math.Abs(d), bit: d > 0})
		}
		puf.Age(src.Fork("age", rep), 0.3)
		for _, pr := range probes {
			flipped := (puf.Delay(pr.c, Nominal) > 0) != pr.bit
			if pr.margin > 3*params.NoiseSigma {
				deepTotal++
				if flipped {
					deepFlips++
				}
			} else {
				marginalTotal++
				if flipped {
					marginalFlips++
				}
			}
		}
	}
	deepRate := float64(deepFlips) / float64(deepTotal)
	marginalRate := float64(marginalFlips) / float64(marginalTotal)
	if marginalRate <= deepRate {
		t.Errorf("marginal flip rate %.4f not above deep-margin rate %.4f", marginalRate, deepRate)
	}
}

func TestChipAgingAffectsAllPUFs(t *testing.T) {
	chip := NewChip(rng.New(57), DefaultParams(), 3)
	src := rng.New(58)
	c := challenge.Random(src, chip.Stages())
	before := make([]float64, 3)
	for i := range before {
		before[i] = chip.PUF(i).Delay(c, Nominal)
	}
	chip.Age(rng.New(59), 0.2)
	for i := range before {
		if chip.PUF(i).Delay(c, Nominal) == before[i] {
			t.Errorf("PUF %d unchanged by chip aging", i)
		}
	}
}
