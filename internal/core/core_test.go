package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"xorpuf/internal/challenge"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
)

func testConfig() EnrollConfig {
	cfg := DefaultEnrollConfig()
	cfg.TrainingSize = 2000
	cfg.ValidationSize = 8000
	return cfg
}

func enrollTestChip(t *testing.T, seed uint64, width int, cfg EnrollConfig) (*silicon.Chip, *Enrollment) {
	t.Helper()
	chip := silicon.NewChip(rng.New(seed), silicon.DefaultParams(), width)
	enr, err := EnrollChip(chip, rng.New(seed+1000), cfg)
	if err != nil {
		t.Fatalf("EnrollChip: %v", err)
	}
	return chip, enr
}

func TestFitModelRecoversDelayDirection(t *testing.T) {
	// The regression coefficients must align with the PUF's ground-truth
	// weight vector (cosine similarity ≈ 1): the linear model extracts
	// the delay parameters up to scale.
	chip := silicon.NewChip(rng.New(1), silicon.DefaultParams(), 1)
	model, err := EnrollPUF(chip, 0, rng.New(2), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := chip.PUF(0).Weights(silicon.Nominal)
	// Ignore the constant-feature coefficient, which absorbs the 0.5
	// soft-response offset on top of the arbiter bias.
	var dot, nw, nt float64
	for i := 0; i < len(w)-1; i++ {
		dot += w[i] * model.Theta[i]
		nw += w[i] * w[i]
		nt += model.Theta[i] * model.Theta[i]
	}
	cos := dot / math.Sqrt(nw*nt)
	if cos < 0.97 {
		t.Errorf("cosine(theta, weights) = %.4f, want > 0.97", cos)
	}
}

func TestFitModelThresholdGeometry(t *testing.T) {
	chip := silicon.NewChip(rng.New(3), silicon.DefaultParams(), 1)
	model, err := EnrollPUF(chip, 0, rng.New(4), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !(model.Thr0 > 0 && model.Thr0 < 0.5) {
		t.Errorf("Thr0 = %v, want in (0, 0.5)", model.Thr0)
	}
	if !(model.Thr1 > 0.5 && model.Thr1 < 1) {
		t.Errorf("Thr1 = %v, want in (0.5, 1)", model.Thr1)
	}
	if model.Thr0 >= model.Thr1 {
		t.Errorf("Thr0 %v >= Thr1 %v", model.Thr0, model.Thr1)
	}
}

func TestPredictSoftMatchesFeatureDot(t *testing.T) {
	chip := silicon.NewChip(rng.New(5), silicon.DefaultParams(), 1)
	model, err := EnrollPUF(chip, 0, rng.New(6), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(word uint32) bool {
		c := challenge.FromWord(uint64(word), model.Stages())
		phi := challenge.Features(c)
		return math.Abs(model.PredictSoft(c)-model.PredictSoftFeatures(phi)) < 1e-12
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPredictionTracksTrueSoftResponse(t *testing.T) {
	// Predicted and true soft responses must agree in ordering: challenges
	// predicted deep stable-0 must have response probability ≈ 0, etc.
	chip := silicon.NewChip(rng.New(7), silicon.DefaultParams(), 1)
	model, err := EnrollPUF(chip, 0, rng.New(8), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(9)
	for i := 0; i < 3000; i++ {
		c := challenge.Random(src, model.Stages())
		pred := model.PredictSoft(c)
		p := chip.PUF(0).ResponseProbability(c, silicon.Nominal)
		if pred < -0.2 && p > 1e-3 {
			t.Fatalf("pred %v but true P(1) = %v", pred, p)
		}
		if pred > 1.2 && p < 1-1e-3 {
			t.Fatalf("pred %v but true P(1) = %v", pred, p)
		}
	}
}

func TestClassifyBoundaries(t *testing.T) {
	m := &PUFModel{Thr0: 0.3, Thr1: 0.7}
	cases := []struct {
		pred, b0, b1 float64
		want         Category
	}{
		{0.1, 1, 1, Stable0},
		{0.3, 1, 1, Unstable}, // boundary is exclusive
		{0.5, 1, 1, Unstable},
		{0.7, 1, 1, Unstable},
		{0.9, 1, 1, Stable1},
		{0.25, 0.74, 1.08, Unstable}, // 0.74·0.3 = 0.222: tightened out
		{0.2, 0.74, 1.08, Stable0},
		{0.74, 0.74, 1.08, Unstable}, // 1.08·0.7 = 0.756
		{0.8, 0.74, 1.08, Stable1},
	}
	for _, c := range cases {
		if got := m.Classify(c.pred, c.b0, c.b1); got != c.want {
			t.Errorf("Classify(%v, %v, %v) = %v, want %v", c.pred, c.b0, c.b1, got, c.want)
		}
	}
}

func TestCategoryStringAndBit(t *testing.T) {
	if Stable0.String() != "stable 0" || Stable1.String() != "stable 1" || Unstable.String() != "unstable" {
		t.Error("category strings wrong")
	}
	if Stable0.PredictBit() != 0 || Stable1.PredictBit() != 1 {
		t.Error("category bits wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("PredictBit on Unstable should panic")
		}
	}()
	_ = Unstable.PredictBit()
}

func TestFitModelInputValidation(t *testing.T) {
	if _, err := FitModel(nil, nil, 0); err == nil {
		t.Error("empty training set should fail")
	}
	cs := challenge.RandomBatch(rng.New(10), 10, 32)
	if _, err := FitModel(cs, make([]float64, 9), 0); err == nil {
		t.Error("length mismatch should fail")
	}
	bad := make([]float64, 10)
	bad[3] = 1.5
	if _, err := FitModel(cs, bad, 0); err == nil {
		t.Error("out-of-range soft response should fail")
	}
}

func TestFitModelDegenerate(t *testing.T) {
	// All responses exactly 0: thresholds cannot be derived.
	cs := challenge.RandomBatch(rng.New(11), 200, 32)
	soft := make([]float64, 200)
	if _, err := FitModel(cs, soft, 0); !errors.Is(err, ErrDegenerateTraining) {
		t.Errorf("err = %v, want ErrDegenerateTraining", err)
	}
}

func TestBetaSearchDirection(t *testing.T) {
	// β0 ≤ 1 and β1 ≥ 1 always; hardening across V/T corners must be at
	// least as stringent as nominal-only.
	cfgNom := testConfig()
	cfgVT := testConfig()
	cfgVT.Conditions = silicon.Corners()
	chip := silicon.NewChip(rng.New(12), silicon.DefaultParams(), 1)
	model, err := EnrollPUF(chip, 0, rng.New(13), cfgNom)
	if err != nil {
		t.Fatal(err)
	}
	nom, err := SearchBetas(chip, 0, model, rng.New(14), cfgNom)
	if err != nil {
		t.Fatal(err)
	}
	vt, err := SearchBetas(chip, 0, model, rng.New(14), cfgVT)
	if err != nil {
		t.Fatal(err)
	}
	if nom.Beta0 > 1 || nom.Beta1 < 1 {
		t.Errorf("nominal betas (%v, %v) outside (≤1, ≥1)", nom.Beta0, nom.Beta1)
	}
	if vt.Beta0 > nom.Beta0 || vt.Beta1 < nom.Beta1 {
		t.Errorf("V/T betas (%v, %v) must be at least as stringent as nominal (%v, %v)",
			vt.Beta0, vt.Beta1, nom.Beta0, nom.Beta1)
	}
}

func TestSelectedChallengesAreTrulyStable(t *testing.T) {
	// The heart of the paper: challenges the model selects must be
	// measured 100 % stable.
	chip, enr := enrollTestChip(t, 15, 4, testConfig())
	cs, _, err := NewSelector(enr.Model, rng.New(16)).Next(300, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, c := range cs {
		// Exact per-window stability probability of the XOR output.
		prob := chip.XORStabilityProbability(chip.NumPUFs(), challenge.FromWord(c, enr.Model.Stages()), silicon.Nominal)
		if prob < 0.9999 {
			bad++
		}
	}
	if frac := float64(bad) / float64(len(cs)); frac > 0.01 {
		t.Errorf("%.2f%% of selected challenges are not near-certainly stable", 100*frac)
	}
}

func TestPredictXORMatchesGroundTruth(t *testing.T) {
	chip, enr := enrollTestChip(t, 17, 4, testConfig())
	cs, predicted, err := NewSelector(enr.Model, rng.New(18)).Next(300, 0)
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for i, w := range cs {
		c := challenge.FromWord(w, enr.Model.Stages())
		var want uint8
		for j := 0; j < chip.NumPUFs(); j++ {
			if chip.PUF(j).Delay(c, silicon.Nominal) > 0 {
				want ^= 1
			}
		}
		if predicted[i] != want {
			wrong++
		}
	}
	if wrong > 0 {
		t.Errorf("%d/%d predicted XOR bits differ from noiseless ground truth", wrong, len(cs))
	}
}

func TestAuthenticateGenuineChip(t *testing.T) {
	chip, enr := enrollTestChip(t, 19, 4, testConfig())
	res, err := Authenticate(enr.Model, chip, rng.New(20), 100, silicon.Nominal)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approved {
		t.Errorf("genuine chip denied: %d/%d mismatches", res.Mismatches, res.Challenges)
	}
}

func TestAuthenticateRejectsImpostorChip(t *testing.T) {
	_, enr := enrollTestChip(t, 21, 4, testConfig())
	impostor := silicon.NewChip(rng.New(9999), silicon.DefaultParams(), 4)
	res, err := Authenticate(enr.Model, impostor, rng.New(22), 100, silicon.Nominal)
	if err != nil {
		t.Fatal(err)
	}
	if res.Approved {
		t.Error("impostor chip approved")
	}
	// An uncorrelated chip should mismatch on roughly half the CRPs.
	if res.Mismatches < 20 {
		t.Errorf("impostor only mismatched %d/100", res.Mismatches)
	}
}

func TestAuthenticateAfterFusesBlown(t *testing.T) {
	// The protocol must keep working after enrollment access is revoked.
	cfg := testConfig()
	cfg.BlowFuses = true
	chip, enr := enrollTestChip(t, 23, 4, cfg)
	if !chip.FusesBlown() {
		t.Fatal("fuses should be blown after enrollment with BlowFuses")
	}
	res, err := Authenticate(enr.Model, chip, rng.New(24), 50, silicon.Nominal)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approved {
		t.Errorf("genuine chip denied post-fuse: %d mismatches", res.Mismatches)
	}
}

func TestEnrollChipFailsOnBlownFuses(t *testing.T) {
	chip := silicon.NewChip(rng.New(25), silicon.DefaultParams(), 2)
	chip.BlowFuses()
	if _, err := EnrollChip(chip, rng.New(26), testConfig()); err == nil {
		t.Error("enrolling a blown chip should fail")
	}
}

func TestNarrowSharesModels(t *testing.T) {
	_, enr := enrollTestChip(t, 27, 4, testConfig())
	n2 := enr.Model.Narrow(2)
	if n2.Width() != 2 {
		t.Fatalf("Narrow width %d, want 2", n2.Width())
	}
	if n2.PUFs[0] != enr.Model.PUFs[0] || n2.PUFs[1] != enr.Model.PUFs[1] {
		t.Error("Narrow must share the underlying PUF models")
	}
	if n2.Beta0 != enr.Model.Beta0 || n2.Beta1 != enr.Model.Beta1 {
		t.Error("Narrow must keep the chip betas")
	}
}

func TestSelectionYieldDropsWithWidth(t *testing.T) {
	_, enr := enrollTestChip(t, 28, 6, testConfig())
	var prevYield float64 = 2
	for _, width := range []int{1, 3, 6} {
		cm := enr.Model.Narrow(width)
		sel := NewSelector(cm, rng.New(29))
		if _, _, err := sel.Next(200, 2_000_000); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		yield := 200 / float64(sel.Examined())
		if yield >= prevYield {
			t.Errorf("yield did not drop at width %d: %v vs %v", width, yield, prevYield)
		}
		prevYield = yield
	}
}

func TestSelectChallengesExhaustion(t *testing.T) {
	// An impossible model (thresholds excluding everything) must fail
	// with ErrSelectionExhausted after examining exactly the cap.
	m := &PUFModel{Theta: make([]float64, 33), Thr0: -10, Thr1: 10}
	cm := &ChipModel{PUFs: []*PUFModel{m}, Beta0: 1, Beta1: 1}
	_, _, err := NewSelector(cm, rng.New(30)).Next(5, 1000)
	var exhausted *ErrSelectionExhausted
	if !errors.As(err, &exhausted) {
		t.Fatalf("err = %v, want ErrSelectionExhausted", err)
	}
	if exhausted.Examined != 1000 {
		t.Errorf("Examined = %d, want 1000", exhausted.Examined)
	}
}

func TestChipModelJSONRoundTrip(t *testing.T) {
	_, enr := enrollTestChip(t, 31, 3, testConfig())
	data, err := EncodeChipModel(enr.Model)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeChipModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Beta0 != enr.Model.Beta0 || decoded.Beta1 != enr.Model.Beta1 {
		t.Error("betas did not round-trip")
	}
	if decoded.Width() != 3 {
		t.Fatalf("width %d, want 3", decoded.Width())
	}
	c := challenge.Random(rng.New(32), decoded.Stages())
	for i := range decoded.PUFs {
		a := enr.Model.PUFs[i].PredictSoft(c)
		b := decoded.PUFs[i].PredictSoft(c)
		if a != b {
			t.Errorf("PUF %d prediction changed after round trip: %v vs %v", i, a, b)
		}
	}
}

func TestDecodeChipModelRejectsGarbage(t *testing.T) {
	if _, err := DecodeChipModel([]byte("{")); err == nil {
		t.Error("truncated JSON should fail")
	}
	if _, err := DecodeChipModel([]byte(`{"pufs":[],"beta0":1,"beta1":1}`)); err == nil {
		t.Error("empty PUF list should fail")
	}
	if _, err := DecodeChipModel([]byte(`{"pufs":[{"theta":[1,2,3]},{"theta":[1,2]}],"beta0":1,"beta1":1}`)); err == nil {
		t.Error("mismatched stage counts should fail")
	}
}

func TestPoolBetasConservative(t *testing.T) {
	e1 := &Enrollment{Model: &ChipModel{Beta0: 0.9, Beta1: 1.05}}
	e2 := &Enrollment{Model: &ChipModel{Beta0: 0.74, Beta1: 1.02}}
	e3 := &Enrollment{Model: &ChipModel{Beta0: 0.85, Beta1: 1.08}}
	b0, b1 := PoolBetas([]*Enrollment{e1, e2, e3})
	if b0 != 0.74 || b1 != 1.08 {
		t.Errorf("pooled betas (%v, %v), want (0.74, 1.08)", b0, b1)
	}
}

func TestEnrollConfigValidation(t *testing.T) {
	cfg := testConfig()
	cfg.TrainingSize = 10
	if _, err := EnrollChip(silicon.NewChip(rng.New(33), silicon.DefaultParams(), 1), rng.New(34), cfg); err == nil {
		t.Error("tiny training size should fail")
	}
	cfg = testConfig()
	cfg.BetaStep = 0
	if err := cfg.validate(); err == nil {
		t.Error("zero beta step should fail")
	}
}

func TestSubsetDevice(t *testing.T) {
	chip := silicon.NewChip(rng.New(35), silicon.DefaultParams(), 5)
	dev := SubsetDevice{Chip: chip, N: 3}
	src := rng.New(36)
	// On a challenge where all of the first 3 PUFs are stable, the subset
	// device's read must equal the XOR of their sign bits.
	for tries := 0; tries < 1000; tries++ {
		c := challenge.Random(src, chip.Stages())
		stable := true
		var want uint8
		for i := 0; i < 3; i++ {
			p := chip.PUF(i).ResponseProbability(c, silicon.Nominal)
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
		if got := dev.ReadXOR(c, silicon.Nominal); got != want {
			t.Fatalf("SubsetDevice.ReadXOR = %d, want %d", got, want)
		}
		return
	}
	t.Fatal("no stable challenge found")
}

func TestSelectorNeverRepeats(t *testing.T) {
	_, enr := enrollTestChip(t, 40, 3, testConfig())
	sel := NewSelector(enr.Model, rng.New(41))
	seen := map[uint64]bool{}
	for round := 0; round < 20; round++ {
		cs, bits, err := sel.Next(50, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(cs) != 50 || len(bits) != 50 {
			t.Fatalf("round %d: got %d/%d", round, len(cs), len(bits))
		}
		for _, w := range cs {
			if seen[w] {
				t.Fatalf("round %d: challenge reused", round)
			}
			seen[w] = true
		}
	}
	if sel.Issued() != 1000 {
		t.Errorf("Issued = %d, want 1000", sel.Issued())
	}
}

func TestSelectorPredictionsMatchModel(t *testing.T) {
	_, enr := enrollTestChip(t, 42, 3, testConfig())
	sel := NewSelector(enr.Model, rng.New(43))
	cs, bits, err := sel.Next(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range cs {
		bit, stable := enr.Model.PredictXOR(challenge.FromWord(w, sel.Stages()))
		if !stable {
			t.Fatal("selector issued an unstable challenge")
		}
		if bit != bits[i] {
			t.Fatal("selector bit disagrees with model prediction")
		}
	}
}

func TestSelectorExhaustion(t *testing.T) {
	// Thresholds no prediction can clear: every candidate is unstable, so
	// the search must stop at its cap with ErrSelectionExhausted.
	m := &PUFModel{Theta: make([]float64, 33), Thr0: -10, Thr1: 10}
	cm := &ChipModel{PUFs: []*PUFModel{m}, Beta0: 1, Beta1: 1}
	sel := NewSelector(cm, rng.New(44))
	_, _, err := sel.Next(5, 500)
	var exhausted *ErrSelectionExhausted
	if !errors.As(err, &exhausted) {
		t.Fatalf("err = %v, want ErrSelectionExhausted", err)
	}
	if exhausted.Examined != 500 || sel.Examined() != 500 {
		t.Errorf("Examined = %d (selector %d), want 500", exhausted.Examined, sel.Examined())
	}
}

func TestClassifyScalesWithBetaProperty(t *testing.T) {
	// Property: tightening β can only move challenges from stable
	// categories to Unstable, never the other way.
	m := &PUFModel{Thr0: 0.35, Thr1: 0.65}
	if err := quick.Check(func(predRaw int16, tighten uint8) bool {
		pred := float64(predRaw) / 10000 // ±3.27
		loose := m.Classify(pred, 1, 1)
		f := 1 + float64(tighten%50)/100
		tight := m.Classify(pred, 1/f, f)
		if loose == Unstable {
			return tight == Unstable
		}
		return tight == loose || tight == Unstable
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPredictSoftLinearityProperty(t *testing.T) {
	// PredictSoft is linear in θ: model with θ=a+b predicts sum of parts.
	chipA := silicon.NewChip(rng.New(45), silicon.DefaultParams(), 1)
	chipB := silicon.NewChip(rng.New(46), silicon.DefaultParams(), 1)
	ma, err := EnrollPUF(chipA, 0, rng.New(47), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	mb, err := EnrollPUF(chipB, 0, rng.New(48), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sum := &PUFModel{Theta: make([]float64, len(ma.Theta))}
	for i := range sum.Theta {
		sum.Theta[i] = ma.Theta[i] + mb.Theta[i]
	}
	src := rng.New(49)
	for i := 0; i < 200; i++ {
		c := challenge.Random(src, 32)
		want := ma.PredictSoft(c) + mb.PredictSoft(c)
		if math.Abs(sum.PredictSoft(c)-want) > 1e-12 {
			t.Fatal("PredictSoft not linear in theta")
		}
	}
}

func TestIncrementalFitMatchesBatch(t *testing.T) {
	// RLS over the full stream must converge to the batch least-squares
	// solution (up to the tiny δ regularization).
	chip := silicon.NewChip(rng.New(60), silicon.DefaultParams(), 1)
	src := rng.New(61)
	const n = 3000
	cs := challenge.RandomBatch(src, n, chip.Stages())
	soft := make([]float64, n)
	inc := NewIncrementalFit(chip.Stages(), 1e-8)
	for i, c := range cs {
		s, err := chip.SoftResponse(0, c, silicon.Nominal)
		if err != nil {
			t.Fatal(err)
		}
		soft[i] = s
		if err := inc.Update(c, s); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := FitModel(cs, soft, 0)
	if err != nil {
		t.Fatal(err)
	}
	incModel, err := inc.Model()
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch.Theta {
		if math.Abs(batch.Theta[i]-incModel.Theta[i]) > 1e-6 {
			t.Fatalf("theta[%d]: batch %v vs RLS %v", i, batch.Theta[i], incModel.Theta[i])
		}
	}
	if math.Abs(batch.Thr0-incModel.Thr0) > 1e-5 || math.Abs(batch.Thr1-incModel.Thr1) > 1e-5 {
		t.Errorf("thresholds differ: batch (%v,%v) vs RLS (%v,%v)",
			batch.Thr0, batch.Thr1, incModel.Thr0, incModel.Thr1)
	}
	if inc.Count() != n {
		t.Errorf("Count = %d, want %d", inc.Count(), n)
	}
}

func TestIncrementalFitValidation(t *testing.T) {
	inc := NewIncrementalFit(32, 1e-6)
	if err := inc.Update(make(challenge.Challenge, 16), 0.5); err == nil {
		t.Error("wrong challenge length should fail")
	}
	if err := inc.Update(make(challenge.Challenge, 32), 1.5); err == nil {
		t.Error("out-of-range soft should fail")
	}
	if _, err := inc.Model(); err == nil {
		t.Error("empty fit should not produce a model")
	}
}

func TestIncrementalFitStreamingUsable(t *testing.T) {
	// A model snapshot taken mid-stream already classifies reasonably:
	// selected challenges from the early model must be mostly stable.
	chip := silicon.NewChip(rng.New(62), silicon.DefaultParams(), 1)
	src := rng.New(63)
	inc := NewIncrementalFit(chip.Stages(), 1e-8)
	for i := 0; i < 1200; i++ {
		c := challenge.Random(src, chip.Stages())
		s, err := chip.SoftResponse(0, c, silicon.Nominal)
		if err != nil {
			t.Fatal(err)
		}
		if err := inc.Update(c, s); err != nil {
			t.Fatal(err)
		}
	}
	model, err := inc.Model()
	if err != nil {
		t.Fatal(err)
	}
	test := rng.New(64)
	selected, wrong := 0, 0
	for i := 0; i < 4000; i++ {
		c := challenge.Random(test, chip.Stages())
		if model.ClassifyChallenge(c, 1, 1) == Unstable {
			continue
		}
		selected++
		if chip.PUF(0).StabilityProbability(c, silicon.Nominal, chip.Params().CounterDepth) < 0.99 {
			wrong++
		}
	}
	if selected < 1000 {
		t.Fatalf("early model selected only %d/4000", selected)
	}
	if frac := float64(wrong) / float64(selected); frac > 0.02 {
		t.Errorf("early-model selection error %.3f, want < 0.02", frac)
	}
}

func TestSelectorBudgetAccounting(t *testing.T) {
	_, enr := enrollTestChip(t, 46, 3, testConfig())
	sel := NewSelector(enr.Model, rng.New(47))
	if sel.Remaining() != -1 {
		t.Fatalf("unbudgeted Remaining = %d, want -1", sel.Remaining())
	}
	sel.SetBudget(120)
	if got := sel.Remaining(); got != 120 {
		t.Fatalf("Remaining = %d, want 120", got)
	}
	if _, _, err := sel.Next(50, 0); err != nil {
		t.Fatal(err)
	}
	if got := sel.Remaining(); got != 70 {
		t.Errorf("after 50 issued, Remaining = %d, want 70", got)
	}
	// A request that would overrun the budget fails without issuing
	// anything: a partial session burns CRPs with no verdict.
	_, _, err := sel.Next(71, 0)
	var exhausted *ErrBudgetExhausted
	if !errors.As(err, &exhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if exhausted.Budget != 120 || exhausted.Issued != 50 || exhausted.Wanted != 71 {
		t.Errorf("exhausted = %+v", exhausted)
	}
	if sel.Issued() != 50 {
		t.Errorf("failed request burned budget: Issued = %d, want 50", sel.Issued())
	}
	// Exactly consuming the remainder still works.
	if _, _, err := sel.Next(70, 0); err != nil {
		t.Fatal(err)
	}
	if sel.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", sel.Remaining())
	}
	// Lifting the cap re-enables issuing.
	sel.SetBudget(0)
	if _, _, err := sel.Next(10, 0); err != nil {
		t.Errorf("after lifting budget: %v", err)
	}
}
