package mlattack

import (
	"math"
	"testing"

	"xorpuf/internal/challenge"
	"xorpuf/internal/linalg"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
	"xorpuf/internal/xorpuf"
)

func TestLBFGSQuadratic(t *testing.T) {
	// f(x) = Σ i·(x_i − i)²: minimum at x_i = i.
	obj := func(x, grad []float64) float64 {
		f := 0.0
		for i := range x {
			c := float64(i + 1)
			d := x[i] - c
			f += c * d * d
			grad[i] = 2 * c * d
		}
		return f
	}
	res := MinimizeLBFGS(obj, make([]float64, 20), DefaultLBFGSConfig())
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	for i, v := range res.X {
		if math.Abs(v-float64(i+1)) > 1e-4 {
			t.Fatalf("x[%d] = %v, want %d", i, v, i+1)
		}
	}
}

func TestLBFGSRosenbrock(t *testing.T) {
	obj := func(x, grad []float64) float64 {
		a, b := x[0], x[1]
		f := (1-a)*(1-a) + 100*(b-a*a)*(b-a*a)
		grad[0] = -2*(1-a) - 400*a*(b-a*a)
		grad[1] = 200 * (b - a*a)
		return f
	}
	cfg := DefaultLBFGSConfig()
	cfg.MaxIter = 500
	cfg.FuncTol = 1e-14
	res := MinimizeLBFGS(obj, []float64{-1.2, 1}, cfg)
	if math.Abs(res.X[0]-1) > 1e-4 || math.Abs(res.X[1]-1) > 1e-4 {
		t.Fatalf("Rosenbrock minimum not found: %v (f=%v, iters=%d)", res.X, res.F, res.Iterations)
	}
}

func TestLBFGSAlreadyAtMinimum(t *testing.T) {
	obj := func(x, grad []float64) float64 {
		grad[0] = 0
		return 7
	}
	res := MinimizeLBFGS(obj, []float64{3}, DefaultLBFGSConfig())
	if !res.Converged || res.X[0] != 3 {
		t.Fatalf("should converge immediately: %+v", res)
	}
}

func TestMLPParamLayout(t *testing.T) {
	m := NewMLP(33, []int{35, 25, 25})
	want := 33*35 + 35 + 35*25 + 25 + 25*25 + 25 + 25*1 + 1
	if m.nParams != want {
		t.Fatalf("%d params, want %d", m.nParams, want)
	}
	if m.Layers() != 4 {
		t.Fatalf("Layers = %d, want 4", m.Layers())
	}
}

func TestMLPGradientMatchesFiniteDifference(t *testing.T) {
	// The analytic backprop gradient must match central differences.
	src := rng.New(1)
	m := NewMLP(5, []int{4, 3})
	x := linalg.NewMatrix(12, 5)
	y := make([]float64, 12)
	for i := range x.Data {
		x.Data[i] = src.Norm()
	}
	for i := range y {
		y[i] = float64(src.Bit())
	}
	obj := m.Objective(x, y, 0.01)
	params := m.InitParams(src)
	grad := make([]float64, len(params))
	obj(params, grad)
	const h = 1e-6
	scratch := make([]float64, len(params))
	for i := 0; i < len(params); i += 7 { // spot-check a spread of parameters
		orig := params[i]
		params[i] = orig + h
		fp := obj(params, scratch)
		params[i] = orig - h
		fm := obj(params, scratch)
		params[i] = orig
		fd := (fp - fm) / (2 * h)
		if math.Abs(fd-grad[i]) > 1e-5*(1+math.Abs(fd)) {
			t.Fatalf("param %d: analytic %v vs finite-diff %v", i, grad[i], fd)
		}
	}
}

func TestMLPLearnsXORFunction(t *testing.T) {
	// The classic nonlinear sanity check: y = x1 XOR x2 on ±1 inputs.
	src := rng.New(2)
	const n = 400
	x := linalg.NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := float64(src.Bit()), float64(src.Bit())
		x.Set(i, 0, 2*a-1)
		x.Set(i, 1, 2*b-1)
		if a != b {
			y[i] = 1
		}
	}
	m := NewMLP(2, []int{8})
	obj := m.Objective(x, y, 1e-4)
	var best LBFGSResult
	for r := 0; r < 3; r++ {
		res := MinimizeLBFGS(obj, m.InitParams(src.SplitIndex(r)), DefaultLBFGSConfig())
		if r == 0 || res.F < best.F {
			best = res
		}
	}
	acc := Accuracy(m.Predict(best.X, x), y)
	if acc < 0.99 {
		t.Fatalf("MLP failed to learn XOR: accuracy %v", acc)
	}
}

func TestLogisticCannotLearnXORFunction(t *testing.T) {
	// Negative control: a linear model stays near chance on XOR —
	// this is exactly why XOR PUFs defeat plain logistic regression.
	src := rng.New(3)
	const n = 400
	x := linalg.NewMatrix(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := float64(src.Bit()), float64(src.Bit())
		x.Set(i, 0, 2*a-1)
		x.Set(i, 1, 2*b-1)
		x.Set(i, 2, 1)
		if a != b {
			y[i] = 1
		}
	}
	model, _ := TrainLogistic(x, y, 1e-4, DefaultLBFGSConfig())
	acc := Accuracy(model.Predict(x), y)
	if acc > 0.65 {
		t.Fatalf("logistic regression should not solve XOR, got accuracy %v", acc)
	}
}

// buildXORDatasets fabricates a chip and produces stable-CRP train/test
// datasets of an n-XOR PUF, mimicking the paper's §2.3 methodology.
func buildXORDatasets(t *testing.T, seed uint64, width, trainN, testN int) (Dataset, Dataset) {
	t.Helper()
	params := silicon.DefaultParams()
	chip := silicon.NewChip(rng.New(seed), params, width)
	x := xorpuf.FromChip(chip, width)
	crps, _ := x.StableCRPs(rng.New(seed+1), trainN+testN, silicon.Nominal, 0.999)
	return DatasetFromCRPs(crps[:trainN]), DatasetFromCRPs(crps[trainN:])
}

func TestLogisticBreaksSinglePUF(t *testing.T) {
	// Refs [2-5]: one arbiter PUF falls to logistic regression with a few
	// thousand CRPs.
	train, test := buildXORDatasets(t, 10, 1, 3000, 1000)
	res := RunLogisticAttack(train, test, 1e-4, DefaultLBFGSConfig())
	if res.TestAccuracy < 0.97 {
		t.Fatalf("logistic attack on single PUF: accuracy %v, want > 0.97", res.TestAccuracy)
	}
}

func TestMLPBreaksNarrowXORPUF(t *testing.T) {
	if testing.Short() {
		t.Skip("MLP attack test skipped in -short mode")
	}
	// Fig 4's left edge: a 2-XOR PUF must fall to the MLP with modest
	// training data.
	train, test := buildXORDatasets(t, 11, 2, 6000, 1500)
	cfg := DefaultMLPAttackConfig()
	cfg.Restarts = 3
	res := RunMLPAttack(rng.New(12), train, test, cfg)
	if res.TestAccuracy < 0.90 {
		t.Fatalf("MLP attack on 2-XOR: accuracy %v, want > 0.90", res.TestAccuracy)
	}
}

func TestWideXORPUFResists(t *testing.T) {
	if testing.Short() {
		t.Skip("MLP attack test skipped in -short mode")
	}
	// Fig 4's right edge: with the same modest training budget, a 10-XOR
	// PUF must stay near chance — the paper's security claim.
	train, test := buildXORDatasets(t, 13, 10, 6000, 1500)
	cfg := DefaultMLPAttackConfig()
	cfg.Restarts = 1
	cfg.LBFGS.MaxIter = 100
	res := RunMLPAttack(rng.New(14), train, test, cfg)
	if res.TestAccuracy > 0.65 {
		t.Fatalf("10-XOR PUF broken with 6k CRPs: accuracy %v", res.TestAccuracy)
	}
}

func TestAccuracyFunction(t *testing.T) {
	probs := []float64{0.9, 0.2, 0.6, 0.4}
	y := []float64{1, 0, 0, 0}
	if got := Accuracy(probs, y); got != 0.75 {
		t.Fatalf("Accuracy = %v, want 0.75", got)
	}
}

func TestDatasetFromCRPs(t *testing.T) {
	params := silicon.DefaultParams()
	chip := silicon.NewChip(rng.New(15), params, 2)
	x := xorpuf.FromChip(chip, 2)
	crps, _ := x.StableCRPs(rng.New(16), 50, silicon.Nominal, 0.999)
	d := DatasetFromCRPs(crps)
	if d.Len() != 50 || d.X.Cols != params.Stages+1 {
		t.Fatalf("dataset shape %dx%d", d.Len(), d.X.Cols)
	}
	for i, crp := range crps {
		if d.Y[i] != float64(crp.Response) {
			t.Fatal("labels do not match responses")
		}
		phi := challenge.Features(crp.Challenge)
		row := d.X.Row(i)
		for j := range phi {
			if row[j] != phi[j] {
				t.Fatal("features do not match challenges")
			}
		}
	}
}

func TestDatasetHead(t *testing.T) {
	d := Dataset{X: linalg.NewMatrix(10, 3), Y: make([]float64, 10)}
	h := d.Head(4)
	if h.Len() != 4 || h.X.Rows != 4 {
		t.Fatalf("Head shape %d/%d", h.Len(), h.X.Rows)
	}
	if h2 := d.Head(99); h2.Len() != 10 {
		t.Fatal("Head should clamp to dataset size")
	}
}

func TestLogisticRecoversWeightDirection(t *testing.T) {
	// The logistic weights must align with the attacked PUF's true delay
	// vector — the attack literally extracts the delay parameters.
	params := silicon.DefaultParams()
	chip := silicon.NewChip(rng.New(17), params, 1)
	x := xorpuf.FromChip(chip, 1)
	crps, _ := x.StableCRPs(rng.New(18), 4000, silicon.Nominal, 0.999)
	d := DatasetFromCRPs(crps)
	model, _ := TrainLogistic(d.X, d.Y, 1e-4, DefaultLBFGSConfig())
	w := chip.PUF(0).Weights(silicon.Nominal)
	var dot, nw, nm float64
	for i := range w {
		dot += w[i] * model.Weights[i]
		nw += w[i] * w[i]
		nm += model.Weights[i] * model.Weights[i]
	}
	if cos := dot / math.Sqrt(nw*nm); cos < 0.95 {
		t.Fatalf("cosine(logistic weights, true delays) = %v, want > 0.95", cos)
	}
}

func BenchmarkMLPTrainPerCRP(b *testing.B) {
	// The paper's §2.3 speed metric: training cost per CRP (they report
	// 0.395 ms/CRP on an i7).  One full L-BFGS training on 4k CRPs.
	params := silicon.DefaultParams()
	chip := silicon.NewChip(rng.New(19), params, 4)
	x := xorpuf.FromChip(chip, 4)
	crps, _ := x.StableCRPs(rng.New(20), 4000, silicon.Nominal, 0.999)
	train := DatasetFromCRPs(crps)
	cfg := DefaultMLPAttackConfig()
	cfg.Restarts = 1
	cfg.LBFGS.MaxIter = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := RunMLPAttack(rng.New(uint64(21+i)), train, Dataset{X: linalg.NewMatrix(0, train.X.Cols)}, cfg)
		b.ReportMetric(float64(res.PerCRP.Microseconds()), "µs/CRP")
	}
}

func TestFeedForwardResistsLogisticBetterThanLinear(t *testing.T) {
	// Ref [1]'s motivation for feed-forward loops: they break the linear
	// additive model, so logistic regression models them worse than a
	// plain arbiter PUF at the same CRP budget.
	params := silicon.DefaultParams()
	const trainN, testN = 3000, 1000

	// Plain arbiter PUF CRPs (noiseless responses).
	lin := silicon.NewArbiterPUF(rng.New(30), params)
	ff := silicon.NewFeedForwardPUF(rng.New(31), params, []silicon.FeedForwardLoop{
		{Tap: 5, Target: 13},
		{Tap: 13, Target: 21},
		{Tap: 21, Target: 29},
	})
	cSrc := rng.New(32)
	cs := challenge.RandomBatch(cSrc, trainN+testN, params.Stages)
	linY := make([]float64, len(cs))
	ffY := make([]float64, len(cs))
	for i, c := range cs {
		if lin.Delay(c, silicon.Nominal) > 0 {
			linY[i] = 1
		}
		ffY[i] = float64(ff.NoiselessResponse(c, silicon.Nominal))
	}
	linData := Dataset{X: challenge.FeatureMatrix(cs), Y: linY}
	ffData := Dataset{X: challenge.FeatureMatrix(cs), Y: ffY}

	linRes := RunLogisticAttack(linData.Head(trainN),
		Dataset{X: sliceTail(linData.X, trainN), Y: linData.Y[trainN:]}, 1e-4, DefaultLBFGSConfig())
	ffRes := RunLogisticAttack(ffData.Head(trainN),
		Dataset{X: sliceTail(ffData.X, trainN), Y: ffData.Y[trainN:]}, 1e-4, DefaultLBFGSConfig())

	if linRes.TestAccuracy < 0.97 {
		t.Fatalf("linear PUF should fall to logistic regression: %.3f", linRes.TestAccuracy)
	}
	if ffRes.TestAccuracy > linRes.TestAccuracy-0.03 {
		t.Errorf("feed-forward PUF (%.3f) should resist noticeably better than linear (%.3f)",
			ffRes.TestAccuracy, linRes.TestAccuracy)
	}
}

// sliceTail views rows [from:) of a matrix without copying.
func sliceTail(m *linalg.Matrix, from int) *linalg.Matrix {
	return &linalg.Matrix{Rows: m.Rows - from, Cols: m.Cols, Data: m.Data[from*m.Cols:]}
}

func TestAdamLearnsXORFunction(t *testing.T) {
	src := rng.New(40)
	const n = 600
	x := linalg.NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := float64(src.Bit()), float64(src.Bit())
		x.Set(i, 0, 2*a-1)
		x.Set(i, 1, 2*b-1)
		if a != b {
			y[i] = 1
		}
	}
	m := NewMLP(2, []int{8})
	cfg := DefaultAdamConfig()
	cfg.Epochs = 400
	cfg.LearningRate = 0.01
	params, _ := m.TrainAdam(src.Split("train"), x, y, 1e-4, cfg)
	acc := Accuracy(m.Predict(params, x), y)
	if acc < 0.98 {
		t.Fatalf("Adam failed to learn XOR: accuracy %v", acc)
	}
}

func TestAdamBreaksSinglePUF(t *testing.T) {
	train, test := buildXORDatasets(t, 41, 1, 3000, 1000)
	cfg := DefaultAdamConfig()
	cfg.Epochs = 60
	res := RunMLPAttackAdam(rng.New(42), train, test, []int{35, 25, 25}, 1e-4, cfg)
	if res.TestAccuracy < 0.95 {
		t.Fatalf("Adam attack on single PUF: accuracy %v, want > 0.95", res.TestAccuracy)
	}
}

func TestAdamEarlyStopping(t *testing.T) {
	// A trivially learnable constant target should trigger the patience
	// early-stop well before the epoch cap.
	src := rng.New(43)
	const n = 400
	x := linalg.NewMatrix(n, 4)
	y := make([]float64, n)
	for i := range x.Data {
		x.Data[i] = src.Norm()
	}
	m := NewMLP(4, []int{6})
	cfg := DefaultAdamConfig()
	cfg.Epochs = 500
	cfg.Tol = 1 // demand an absurd per-epoch improvement → stop at Patience
	_, epochs := m.TrainAdam(src.Split("t"), x, y, 0, cfg)
	if epochs > cfg.Patience+1 {
		t.Errorf("early stopping never triggered (%d epochs, patience %d)", epochs, cfg.Patience)
	}
}

func TestAdamBatchLargerThanDataset(t *testing.T) {
	src := rng.New(44)
	x := linalg.NewMatrix(50, 3)
	y := make([]float64, 50)
	for i := range x.Data {
		x.Data[i] = src.Norm()
	}
	for i := range y {
		y[i] = float64(src.Bit())
	}
	m := NewMLP(3, []int{4})
	cfg := DefaultAdamConfig()
	cfg.BatchSize = 1000 // larger than the dataset: must clamp, not panic
	cfg.Epochs = 5
	cfg.Tol = 0
	params, epochs := m.TrainAdam(src.Split("t"), x, y, 1e-4, cfg)
	if len(params) != m.nParams || epochs != 5 {
		t.Errorf("clamped-batch training misbehaved: %d params, %d epochs", len(params), epochs)
	}
}
