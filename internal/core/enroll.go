package core

import (
	"errors"
	"fmt"
	"math"

	"xorpuf/internal/challenge"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
)

// EnrollConfig controls the enrollment phase (paper Fig 6).
type EnrollConfig struct {
	// TrainingSize is the number of challenges measured for the
	// regression and raw-threshold extraction (paper: 5,000).
	TrainingSize int
	// ValidationSize is the number of fresh challenges used by the β
	// threshold-adjustment search (paper Fig 9 used the 1M test set; the
	// default trades that for 50,000, which pins β to the same grid
	// values in practice).
	ValidationSize int
	// Ridge is the Tikhonov regularization applied to the regression.
	Ridge float64
	// BetaStep is the grid on which β0/β1 are searched (paper quotes
	// two-decimal values, so 0.01).
	BetaStep float64
	// Conditions are the operating corners the β search hardens against.
	// Nil means nominal only; use silicon.Corners() for the paper's
	// Section 5.2 voltage/temperature hardening.
	Conditions []silicon.Condition
	// BlowFuses, when set, blows the chip's one-time fuses after
	// enrollment so individual PUF access is permanently disabled.
	BlowFuses bool
}

// DefaultEnrollConfig mirrors the paper's nominal-condition setup.
func DefaultEnrollConfig() EnrollConfig {
	return EnrollConfig{
		TrainingSize:   5000,
		ValidationSize: 50000,
		Ridge:          0,
		BetaStep:       0.01,
		Conditions:     nil,
		BlowFuses:      false,
	}
}

func (cfg EnrollConfig) validate() error {
	switch {
	case cfg.TrainingSize < 100:
		return fmt.Errorf("core: TrainingSize %d too small", cfg.TrainingSize)
	case cfg.ValidationSize < 0:
		return fmt.Errorf("core: negative ValidationSize")
	case cfg.BetaStep <= 0 || cfg.BetaStep > 0.5:
		return fmt.Errorf("core: BetaStep %g outside (0, 0.5]", cfg.BetaStep)
	case cfg.Ridge < 0:
		return fmt.Errorf("core: negative Ridge")
	}
	// The V/T model is only calibrated inside the paper's envelope;
	// enrolling against an extrapolated corner would bake meaningless
	// thresholds into the chip's database entry.
	for _, cond := range cfg.Conditions {
		if err := cond.Validate(); err != nil {
			return fmt.Errorf("core: enrollment condition %v: %w", cond, err)
		}
	}
	return nil
}

func (cfg EnrollConfig) conditions() []silicon.Condition {
	if len(cfg.Conditions) == 0 {
		return []silicon.Condition{silicon.Nominal}
	}
	return cfg.Conditions
}

// ChipModel is the server-side database entry for one enrolled chip: a
// model per member PUF plus the chip-wide β-adjusted threshold factors.
type ChipModel struct {
	PUFs  []*PUFModel `json:"pufs"`
	Beta0 float64     `json:"beta0"`
	Beta1 float64     `json:"beta1"`
}

// Width returns the number of member PUFs (the XOR width n).
func (cm *ChipModel) Width() int { return len(cm.PUFs) }

// Stages returns the challenge length the models expect.
func (cm *ChipModel) Stages() int { return cm.PUFs[0].Stages() }

// Narrow returns a model covering only the first n member PUFs, sharing the
// underlying per-PUF models — used for the paper's width sweeps.
func (cm *ChipModel) Narrow(n int) *ChipModel {
	if n <= 0 || n > len(cm.PUFs) {
		panic(fmt.Sprintf("core: Narrow(%d) out of range [1,%d]", n, len(cm.PUFs)))
	}
	return &ChipModel{PUFs: cm.PUFs[:n], Beta0: cm.Beta0, Beta1: cm.Beta1}
}

// PredictXOR returns the predicted XOR response and whether the challenge is
// predicted stable on all members; the bit is only meaningful when stable.
func (cm *ChipModel) PredictXOR(c challenge.Challenge) (bit uint8, stable bool) {
	for _, m := range cm.PUFs {
		cat := m.ClassifyChallenge(c, cm.Beta0, cm.Beta1)
		if cat == Unstable {
			return 0, false
		}
		bit ^= cat.PredictBit()
	}
	return bit, true
}

// PredictXORFeatures is PredictXOR over a precomputed feature vector
// Φ(c) (see challenge.FeaturesInto).  The feature transform is O(stages)
// and identical for every member PUF, so hot paths that evaluate the
// whole XOR model — challenge selection, synthetic devices — compute it
// once and pay only a dot product per member.
func (cm *ChipModel) PredictXORFeatures(phi []float64) (bit uint8, stable bool) {
	for _, m := range cm.PUFs {
		cat := m.Classify(m.PredictSoftFeatures(phi), cm.Beta0, cm.Beta1)
		if cat == Unstable {
			return 0, false
		}
		bit ^= cat.PredictBit()
	}
	return bit, true
}

// EnrollPUF measures TrainingSize soft responses of PUF pufIdx through the
// chip's counters (fuses must be intact) and fits its model.  Challenges are
// drawn from challengeSrc.
func EnrollPUF(chip *silicon.Chip, pufIdx int, challengeSrc *rng.Source, cfg EnrollConfig) (*PUFModel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cs := challenge.RandomBatch(challengeSrc, cfg.TrainingSize, chip.Stages())
	soft := make([]float64, len(cs))
	for i, c := range cs {
		s, err := chip.SoftResponse(pufIdx, c, silicon.Nominal)
		if err != nil {
			return nil, fmt.Errorf("core: enrolling PUF %d: %w", pufIdx, err)
		}
		soft[i] = s
	}
	return FitModel(cs, soft, cfg.Ridge)
}

// BetaSearchResult reports the per-PUF outcome of the threshold adjustment.
type BetaSearchResult struct {
	Beta0, Beta1 float64
	// Violations0/Violations1 count validation challenges that forced
	// each bound tighter than 1.0.
	Violations0, Violations1 int
}

// SearchBetas finds the most permissive β0 ≤ 1 and β1 ≥ 1 on the BetaStep
// grid such that no validation challenge the model classifies as stable is
// measured unstable at any of the given conditions (paper Fig 9 procedure:
// start at 1.00 and tighten until all unstable responses are filtered out).
//
// Measurement goes through the chip's counters, so fuses must be intact.
func SearchBetas(chip *silicon.Chip, pufIdx int, model *PUFModel, challengeSrc *rng.Source, cfg EnrollConfig) (BetaSearchResult, error) {
	if err := cfg.validate(); err != nil {
		return BetaSearchResult{}, err
	}
	res := BetaSearchResult{Beta0: 1, Beta1: 1}
	conds := cfg.conditions()
	for i := 0; i < cfg.ValidationSize; i++ {
		c := challenge.Random(challengeSrc, chip.Stages())
		pred := model.PredictSoft(c)
		// Only challenges inside the raw stable bands can force a
		// tighter β.
		if pred >= model.Thr0 && pred <= model.Thr1 {
			continue
		}
		unstable := false
		for _, cond := range conds {
			s, err := chip.SoftResponse(pufIdx, c, cond)
			if err != nil {
				return res, fmt.Errorf("core: beta search on PUF %d: %w", pufIdx, err)
			}
			if !StableMeasurement(s) {
				unstable = true
				break
			}
		}
		if !unstable {
			continue
		}
		if pred < model.Thr0 {
			// Need β0·Thr0 ≤ pred so this challenge is excluded;
			// round down to the grid (more stringent).
			res.Violations0++
			b := math.Floor(pred/model.Thr0/cfg.BetaStep) * cfg.BetaStep
			if b < res.Beta0 {
				res.Beta0 = b
			}
		} else {
			res.Violations1++
			b := math.Ceil(pred/model.Thr1/cfg.BetaStep) * cfg.BetaStep
			if b > res.Beta1 {
				res.Beta1 = b
			}
		}
	}
	return res, nil
}

// Enrollment is the full result of enrolling a chip.
type Enrollment struct {
	Model *ChipModel
	// PerPUF records the individual β search outcomes before pooling.
	PerPUF []BetaSearchResult
}

// EnrollChip runs the complete enrollment flow on a chip: fit one model per
// member PUF, search per-PUF βs, pool them conservatively (min β0, max β1 —
// the paper applies common β values chip-wide), and optionally blow the
// fuses.  All randomness comes from src.
func EnrollChip(chip *silicon.Chip, src *rng.Source, cfg EnrollConfig) (*Enrollment, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if chip.FusesBlown() {
		return nil, errors.New("core: cannot enroll a chip whose fuses are already blown")
	}
	enr := &Enrollment{
		Model: &ChipModel{
			PUFs:  make([]*PUFModel, chip.NumPUFs()),
			Beta0: 1,
			Beta1: 1,
		},
		PerPUF: make([]BetaSearchResult, chip.NumPUFs()),
	}
	for i := 0; i < chip.NumPUFs(); i++ {
		model, err := EnrollPUF(chip, i, src.Fork("train", i), cfg)
		if err != nil {
			return nil, err
		}
		betas, err := SearchBetas(chip, i, model, src.Fork("validate", i), cfg)
		if err != nil {
			return nil, err
		}
		enr.Model.PUFs[i] = model
		enr.PerPUF[i] = betas
		if betas.Beta0 < enr.Model.Beta0 {
			enr.Model.Beta0 = betas.Beta0
		}
		if betas.Beta1 > enr.Model.Beta1 {
			enr.Model.Beta1 = betas.Beta1
		}
	}
	if cfg.BlowFuses {
		chip.BlowFuses()
	}
	return enr, nil
}

// PoolBetas returns the most conservative β pair across several enrollments
// (min β0, max β1), mirroring the paper's choice of β0 = 0.74, β1 = 1.08 as
// the extreme values over its 10 chips.
func PoolBetas(enrollments []*Enrollment) (beta0, beta1 float64) {
	beta0, beta1 = 1, 1
	for _, e := range enrollments {
		if e.Model.Beta0 < beta0 {
			beta0 = e.Model.Beta0
		}
		if e.Model.Beta1 > beta1 {
			beta1 = e.Model.Beta1
		}
	}
	return beta0, beta1
}
