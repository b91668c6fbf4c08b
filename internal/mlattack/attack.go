package mlattack

import (
	"time"

	"xorpuf/internal/challenge"
	"xorpuf/internal/linalg"
	"xorpuf/internal/rng"
	"xorpuf/internal/xorpuf"
)

// Dataset is a labeled CRP set in feature form: one parity feature vector
// per row of X and the 1-bit response in Y.
type Dataset struct {
	X *linalg.Matrix
	Y []float64
}

// Len returns the number of CRPs.
func (d Dataset) Len() int { return len(d.Y) }

// DatasetFromCRPs converts XOR-PUF CRPs into feature form.
func DatasetFromCRPs(crps []xorpuf.CRP) Dataset {
	cs := make([]challenge.Challenge, len(crps))
	y := make([]float64, len(crps))
	for i, crp := range crps {
		cs[i] = crp.Challenge
		y[i] = float64(crp.Response)
	}
	return Dataset{X: challenge.FeatureMatrix(cs), Y: y}
}

// Head returns the first n CRPs of the dataset (sharing storage).
func (d Dataset) Head(n int) Dataset {
	if n > d.Len() {
		n = d.Len()
	}
	return Dataset{
		X: &linalg.Matrix{Rows: n, Cols: d.X.Cols, Data: d.X.Data[:n*d.X.Cols]},
		Y: d.Y[:n],
	}
}

// Accuracy scores predicted probabilities against 0/1 labels at the 0.5
// decision threshold.
func Accuracy(probs, y []float64) float64 {
	if len(probs) != len(y) {
		panic("mlattack: Accuracy length mismatch")
	}
	if len(y) == 0 {
		return 0
	}
	correct := 0
	for i, p := range probs {
		bit := 0.0
		if p > 0.5 {
			bit = 1
		}
		if bit == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y))
}

// MLPAttackConfig configures the paper's neural-network modeling attack.
type MLPAttackConfig struct {
	// Hidden is the hidden-layer architecture (paper: 35, 25, 25).
	Hidden []int
	// Alpha is the L2 weight decay (scikit-learn default 1e-4).
	Alpha float64
	// Restarts is the number of random initializations; the best
	// training loss wins.  XOR-PUF loss surfaces are multi-modal, so a
	// few restarts substantially improve attack strength.
	Restarts int
	// LBFGS tunes the optimizer.
	LBFGS LBFGSConfig
}

// DefaultMLPAttackConfig mirrors the paper's setup (§2.3).
func DefaultMLPAttackConfig() MLPAttackConfig {
	return MLPAttackConfig{
		Hidden:   []int{35, 25, 25},
		Alpha:    1e-4,
		Restarts: 3,
		LBFGS:    DefaultLBFGSConfig(),
	}
}

// AttackResult reports a modeling-attack run.
type AttackResult struct {
	TrainAccuracy float64
	TestAccuracy  float64
	TrainSize     int
	TestSize      int
	Iterations    int // L-BFGS iterations of the winning restart
	Restarts      int
	TrainTime     time.Duration
	PerCRP        time.Duration // TrainTime / TrainSize (the paper's ms/CRP)
}

// RunMLPAttack trains the MLP on the training set (with restarts) and scores
// it on the test set.  All randomness (initializations) comes from src.
func RunMLPAttack(src *rng.Source, train, test Dataset, cfg MLPAttackConfig) AttackResult {
	if train.Len() == 0 {
		panic("mlattack: empty training set")
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 1
	}
	mlp := NewMLP(train.X.Cols, cfg.Hidden)
	obj := mlp.Objective(train.X, train.Y, cfg.Alpha)
	start := time.Now()
	var best LBFGSResult
	for r := 0; r < cfg.Restarts; r++ {
		res := MinimizeLBFGS(obj, mlp.InitParams(src.SplitIndex(r)), cfg.LBFGS)
		if r == 0 || res.F < best.F {
			best = res
		}
	}
	elapsed := time.Since(start)
	out := AttackResult{
		TrainAccuracy: Accuracy(mlp.Predict(best.X, train.X), train.Y),
		TrainSize:     train.Len(),
		TestSize:      test.Len(),
		Iterations:    best.Iterations,
		Restarts:      cfg.Restarts,
		TrainTime:     elapsed,
		PerCRP:        elapsed / time.Duration(train.Len()),
	}
	if test.Len() > 0 {
		out.TestAccuracy = Accuracy(mlp.Predict(best.X, test.X), test.Y)
	}
	return out
}

// RunLogisticAttack trains the logistic-regression baseline and scores it.
func RunLogisticAttack(train, test Dataset, alpha float64, cfg LBFGSConfig) AttackResult {
	if train.Len() == 0 {
		panic("mlattack: empty training set")
	}
	start := time.Now()
	model, res := TrainLogistic(train.X, train.Y, alpha, cfg)
	elapsed := time.Since(start)
	out := AttackResult{
		TrainAccuracy: Accuracy(model.Predict(train.X), train.Y),
		TrainSize:     train.Len(),
		TestSize:      test.Len(),
		Iterations:    res.Iterations,
		Restarts:      1,
		TrainTime:     elapsed,
		PerCRP:        elapsed / time.Duration(train.Len()),
	}
	if test.Len() > 0 {
		out.TestAccuracy = Accuracy(model.Predict(test.X), test.Y)
	}
	return out
}
