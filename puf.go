package xorpuf

import (
	"xorpuf/internal/authproto"
	"xorpuf/internal/challenge"
	"xorpuf/internal/core"
	"xorpuf/internal/keygen"
	"xorpuf/internal/mlattack"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
	"xorpuf/internal/xorpuf"
)

// Randomness ----------------------------------------------------------------

// Source is the deterministic splittable random source every simulation
// component draws from.
type Source = rng.Source

// NewSource returns a Source seeded from seed.
func NewSource(seed uint64) *Source { return rng.New(seed) }

// Silicon substrate -------------------------------------------------------

// Chip is a simulated test chip: parallel arbiter PUFs, an XOR output,
// counters and one-time fuses.
type Chip = silicon.Chip

// ArbiterPUF is a single MUX arbiter PUF instance.
type ArbiterPUF = silicon.ArbiterPUF

// Params describes a fabrication process and measurement setup.
type Params = silicon.Params

// Condition is an operating point (supply voltage, temperature).
type Condition = silicon.Condition

// Nominal is the paper's enrollment condition, 0.9 V / 25 °C.
var Nominal = silicon.Nominal

// Corners returns the paper's nine voltage/temperature test conditions.
func Corners() []Condition { return silicon.Corners() }

// DefaultParams returns the parameter set calibrated against the paper's
// 32 nm measurements (32 stages, ~80 % single-PUF stable CRPs, 100,000-deep
// counters).
func DefaultParams() Params { return silicon.DefaultParams() }

// NewChip fabricates a chip with n arbiter PUFs, deterministically from the
// seed.
func NewChip(seed uint64, params Params, n int) *Chip {
	return silicon.NewChip(rng.New(seed), params, n)
}

// FabricateLot fabricates `count` chips with n PUFs each.
func FabricateLot(seed uint64, params Params, count, n int) []*Chip {
	return silicon.FabricateLot(rng.New(seed), params, count, n)
}

// ErrFusesBlown is returned on individual-PUF access after BlowFuses.
var ErrFusesBlown = silicon.ErrFusesBlown

// FeedForwardPUF is an arbiter PUF with feed-forward loops (ref [1]): the
// race outcome at a tap stage drives a later stage's select bit, breaking
// the linear additive model.
type FeedForwardPUF = silicon.FeedForwardPUF

// FeedForwardLoop routes stage Tap's race outcome into stage Target's
// select input.
type FeedForwardLoop = silicon.FeedForwardLoop

// NewFeedForwardPUF fabricates a feed-forward PUF deterministically from
// the seed.
func NewFeedForwardPUF(seed uint64, params Params, loops []FeedForwardLoop) *FeedForwardPUF {
	return silicon.NewFeedForwardPUF(rng.New(seed), params, loops)
}

// Challenges ---------------------------------------------------------------

// Challenge is a vector of MUX select bits, one per stage.
type Challenge = challenge.Challenge

// RandomChallenges returns n uniformly random k-bit challenges.
func RandomChallenges(seed uint64, n, k int) []Challenge {
	return challenge.RandomBatch(rng.New(seed), n, k)
}

// ChallengeFromWord expands a challenge word, stage 0 in bit 0 (the form a
// selector's Next issues), into a k-stage Challenge.
func ChallengeFromWord(w uint64, k int) Challenge { return challenge.FromWord(w, k) }

// Features computes the parity feature vector Φ(c) used by every model.
func Features(c Challenge) []float64 { return challenge.Features(c) }

// XOR composition ----------------------------------------------------------

// XORPUF is an n-input XOR arbiter PUF over member arbiter PUFs.
type XORPUF = xorpuf.XORPUF

// CRP is a challenge–response pair with its stability annotation.
type CRP = xorpuf.CRP

// NewXORPUF composes the first n PUFs of a chip.
func NewXORPUF(chip *Chip, n int) *XORPUF { return xorpuf.FromChip(chip, n) }

// Model-assisted protocol (the paper's contribution) ------------------------

// PUFModel is the server-side linear model of one arbiter PUF.
type PUFModel = core.PUFModel

// ChipModel is the server-database entry for an enrolled chip.
type ChipModel = core.ChipModel

// Enrollment is the result of enrolling a chip.
type Enrollment = core.Enrollment

// EnrollConfig controls the enrollment phase.
type EnrollConfig = core.EnrollConfig

// AuthResult summarizes an authentication attempt.
type AuthResult = core.AuthResult

// Category is the three-way stability classification.
type Category = core.Category

// The three stability categories.
const (
	Stable0  = core.Stable0
	Unstable = core.Unstable
	Stable1  = core.Stable1
)

// DefaultEnrollConfig mirrors the paper's nominal setup (5,000 training
// CRPs, β step 0.01).
func DefaultEnrollConfig() EnrollConfig { return core.DefaultEnrollConfig() }

// Enroll runs the complete enrollment flow (paper Fig 6) on a chip.
func Enroll(chip *Chip, seed uint64, cfg EnrollConfig) (*Enrollment, error) {
	return core.EnrollChip(chip, rng.New(seed), cfg)
}

// Authenticate runs the paper's Fig 7 zero-Hamming-distance protocol.
func Authenticate(model *ChipModel, chip *Chip, seed uint64, count int, cond Condition) (AuthResult, error) {
	return core.Authenticate(model, chip, rng.New(seed), count, cond)
}

// EncodeChipModel serializes a chip model for the server database.
func EncodeChipModel(cm *ChipModel) ([]byte, error) { return core.EncodeChipModel(cm) }

// DecodeChipModel deserializes a chip model.
func DecodeChipModel(data []byte) (*ChipModel, error) { return core.DecodeChipModel(data) }

// Modeling attacks -----------------------------------------------------------

// AttackDataset is a labeled CRP set in feature form.
type AttackDataset = mlattack.Dataset

// AttackResult reports a modeling-attack run.
type AttackResult = mlattack.AttackResult

// MLPAttackConfig configures the paper's neural-network attack.
type MLPAttackConfig = mlattack.MLPAttackConfig

// DefaultMLPAttackConfig mirrors the paper's 35-25-25 MLP + L-BFGS setup.
func DefaultMLPAttackConfig() MLPAttackConfig { return mlattack.DefaultMLPAttackConfig() }

// DatasetFromCRPs converts CRPs into attack-ready feature form.
func DatasetFromCRPs(crps []CRP) AttackDataset { return mlattack.DatasetFromCRPs(crps) }

// RunMLPAttack trains the MLP on train and scores it on test.
func RunMLPAttack(seed uint64, train, test AttackDataset, cfg MLPAttackConfig) AttackResult {
	return mlattack.RunMLPAttack(rng.New(seed), train, test, cfg)
}

// RunLogisticAttack trains the logistic-regression baseline.
func RunLogisticAttack(train, test AttackDataset, alpha float64) AttackResult {
	return mlattack.RunLogisticAttack(train, test, alpha, mlattack.DefaultLBFGSConfig())
}

// Key generation --------------------------------------------------------------

// KeyEnrollment is the public data needed to reproduce a PUF-derived key.
type KeyEnrollment = keygen.Enrollment

// KeyConfig selects the BCH code strength and challenge policy for key
// generation.
type KeyConfig = keygen.Config

// NewKeySelector builds a stateful stable-challenge selector (the paper's
// Fig 7 selection loop) from an enrolled chip model, for use in KeyConfig
// or to draw authentication challenges directly.
func NewKeySelector(model *ChipModel, seed uint64) *core.Selector {
	return core.NewSelector(model, rng.New(seed))
}

// EnrollKey derives a 256-bit device key from the chip's XOR responses.  The
// key is returned exactly once and is not stored in the enrollment; callers
// should hand it off and then clear their copy with keygen.ZeroizeKey.
func EnrollKey(chip *Chip, seed uint64, cond Condition, cfg KeyConfig) (*KeyEnrollment, [32]byte, error) {
	return keygen.Enroll(chip, chip.Stages(), rng.New(seed), cond, cfg)
}

// ReproduceKey re-derives the key on the device at any operating condition.
func ReproduceKey(chip *Chip, enr *KeyEnrollment, cond Condition, cfg KeyConfig) ([32]byte, int, error) {
	return keygen.Reproduce(chip, enr, cond, cfg)
}

// Protocol comparators -------------------------------------------------------

// ModelAssisted is the paper's protocol packaged with its enrollment cost.
type ModelAssisted = authproto.ModelAssisted

// MeasurementBased is the prior-work stable-CRP-storage baseline (ref [1]).
type MeasurementBased = authproto.MeasurementBased

// ClassicHD is the traditional stored-CRP Hamming-threshold protocol.
type ClassicHD = authproto.ClassicHD

// NoiseBifurcation is the ref [6] comparator.
type NoiseBifurcation = authproto.NoiseBifurcation

// Lockdown is the ref [7] CRP-budget wrapper.
type Lockdown = authproto.Lockdown
