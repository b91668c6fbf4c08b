// Environment/stress scheduler: deterministic seeded profiles that drive a
// chip through a simulated multi-year deployment — voltage droop transients,
// temperature ramps across the paper's corners, and cumulative aging epochs —
// so lifetime-reliability machinery (drift detection, quarantine,
// re-enrollment) can be exercised in a test that runs in seconds.
//
// A profile is a flat list of steps.  Each step names the operating
// condition the chip is read at for that step's authentication traffic and,
// for aging epochs, the permanent BTI/HCI drift applied on entry.  Every
// condition a generated profile emits satisfies Condition.Validate: the
// scheduler stresses the chip to the edge of the modeled envelope, never
// beyond it (beyond it the linear V/T model is meaningless).
//
// Determinism: the whole schedule derives from the rng.Source given to
// NewStressProfile, and aging draws flow through per-step forks of the
// source given to ApplyStep — the same seeds replay the same deployment
// bit-for-bit, which is what lets a soak test kill a server mid-epoch and
// re-derive the fielded silicon on the other side of the restart.
package silicon

import (
	"fmt"
	"math"

	"xorpuf/internal/rng"
)

// StressKind labels what a stress step models.
type StressKind uint8

const (
	// StressNominal is quiet deployment time at the enrollment condition.
	StressNominal StressKind = iota
	// StressDroop is a supply-voltage droop transient (brown-out edge).
	StressDroop
	// StressRamp is a temperature excursion toward a thermal corner.
	StressRamp
	// StressAging is a cumulative aging epoch: permanent drift is applied
	// to the silicon before the step's traffic runs.
	StressAging
)

// String implements fmt.Stringer.
func (k StressKind) String() string {
	switch k {
	case StressNominal:
		return "nominal"
	case StressDroop:
		return "droop"
	case StressRamp:
		return "ramp"
	case StressAging:
		return "aging"
	default:
		return fmt.Sprintf("StressKind(%d)", uint8(k))
	}
}

// StressStep is one scheduled deployment interval.
type StressStep struct {
	// Kind labels the stressor.
	Kind StressKind
	// Epoch is the aging epoch this step belongs to (0-based).
	Epoch int
	// Cond is the operating condition during the step; always inside the
	// modeled envelope.
	Cond Condition
	// DriftSigma is the permanent per-path aging drift applied when the
	// step is entered (non-zero only for StressAging steps).
	DriftSigma float64
}

// StressProfile is a deterministic multi-epoch deployment schedule.
type StressProfile struct {
	Steps []StressStep
}

// StressConfig parameterizes profile generation.
type StressConfig struct {
	// Epochs is the number of aging epochs (≈ deployment years).
	Epochs int
	// DriftSigma is the permanent per-path drift applied per aging epoch
	// (delay units; DefaultParams' ProcessSigma is 1.0 for scale).
	DriftSigma float64
	// DroopsPerEpoch interleaves this many voltage-droop transients into
	// each epoch (default 1).
	DroopsPerEpoch int
	// RampsPerEpoch interleaves this many temperature excursions into each
	// epoch (default 1).
	RampsPerEpoch int
}

func (cfg StressConfig) normalized() StressConfig {
	if cfg.DroopsPerEpoch <= 0 {
		cfg.DroopsPerEpoch = 1
	}
	if cfg.RampsPerEpoch <= 0 {
		cfg.RampsPerEpoch = 1
	}
	return cfg
}

// Validate rejects physically meaningless configurations.
func (cfg StressConfig) Validate() error {
	switch {
	case cfg.Epochs <= 0:
		return fmt.Errorf("silicon: stress profile needs Epochs > 0, got %d", cfg.Epochs)
	case math.IsNaN(cfg.DriftSigma) || math.IsInf(cfg.DriftSigma, 0):
		return fmt.Errorf("silicon: non-finite stress DriftSigma %g", cfg.DriftSigma)
	case cfg.DriftSigma < 0:
		return fmt.Errorf("silicon: negative stress DriftSigma %g", cfg.DriftSigma)
	}
	return nil
}

// DefaultStressConfig models a five-year deployment with mild aging: enough
// cumulative drift (√5·0.06 ≈ 0.13·σ_p) to walk marginal CRPs out of their
// enrolled margins without instantly destroying every chip.
func DefaultStressConfig() StressConfig {
	return StressConfig{Epochs: 5, DriftSigma: 0.06, DroopsPerEpoch: 2, RampsPerEpoch: 2}
}

// NewStressProfile generates a deterministic schedule from src.  Each epoch
// opens with a StressAging step at the nominal condition, followed by an
// interleave of droop transients (VDD drawn toward the low rail) and
// temperature ramps (alternating cold/hot corners), with nominal recovery
// intervals between stressors.
func NewStressProfile(src *rng.Source, cfg StressConfig) (*StressProfile, error) {
	cfg = cfg.normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &StressProfile{}
	add := func(s StressStep) {
		s.Cond.mustValidate() // generator invariant: never leave the envelope
		p.Steps = append(p.Steps, s)
	}
	for e := 0; e < cfg.Epochs; e++ {
		es := src.Fork("epoch", e)
		add(StressStep{Kind: StressAging, Epoch: e, Cond: Nominal, DriftSigma: cfg.DriftSigma})
		stressors := cfg.DroopsPerEpoch + cfg.RampsPerEpoch
		for i := 0; i < stressors; i++ {
			if i%2 == 0 && i/2 < cfg.DroopsPerEpoch {
				// Droop: bias toward the low-voltage rail, where noise
				// grows fastest (NoiseVoltCoeff).
				vdd := MinVDD + (Nominal.VDD-MinVDD)*es.Float64()*es.Float64()
				add(StressStep{Kind: StressDroop, Epoch: e,
					Cond: Condition{VDD: vdd, TempC: Nominal.TempC}})
			} else {
				// Ramp: alternate toward the hot and cold corners.
				var t float64
				if es.Bit() == 1 {
					t = Nominal.TempC + (MaxTempC-Nominal.TempC)*es.Float64()
				} else {
					t = MinTempC + (Nominal.TempC-MinTempC)*es.Float64()
				}
				add(StressStep{Kind: StressRamp, Epoch: e,
					Cond: Condition{VDD: Nominal.VDD, TempC: t}})
			}
			add(StressStep{Kind: StressNominal, Epoch: e, Cond: Nominal})
		}
	}
	return p, nil
}

// Epochs returns the number of aging epochs the profile spans.
func (p *StressProfile) Epochs() int {
	n := 0
	for _, s := range p.Steps {
		if s.Epoch+1 > n {
			n = s.Epoch + 1
		}
	}
	return n
}

// CumulativeDrift returns the total RMS per-path drift σ applied through
// step index i (inclusive): independent epoch drifts add in variance.
func (p *StressProfile) CumulativeDrift(i int) float64 {
	var v float64
	for j := 0; j <= i && j < len(p.Steps); j++ {
		v += p.Steps[j].DriftSigma * p.Steps[j].DriftSigma
	}
	return math.Sqrt(v)
}

// ApplyStep enters step i for the given chip: aging steps permanently drift
// the silicon, and every step returns the operating condition its traffic
// should run at.  The per-step aging stream is derived purely from
// (agingSeed, i) — deliberately NOT from a shared *rng.Source, whose state
// advances with every fork — so applying the same profile with the same
// seed to a re-fabricated chip reproduces the identical aged silicon
// regardless of call pattern.  That replay identity is the hook the soak
// harness uses to re-derive fielded devices after a simulated kill -9.
func (p *StressProfile) ApplyStep(chip *Chip, agingSeed uint64, i int) Condition {
	if i < 0 || i >= len(p.Steps) {
		panic(fmt.Sprintf("silicon: stress step %d out of range [0,%d)", i, len(p.Steps)))
	}
	st := p.Steps[i]
	if st.DriftSigma > 0 {
		chip.Age(rng.New(agingSeed).Fork("stress-age", i), st.DriftSigma)
	}
	return st.Cond
}

// Replay re-applies steps [0, upto) to a freshly fabricated chip, aging it
// exactly as a chip that lived through those steps (conditions are
// read-time state, not silicon state, so only the aging matters).
func (p *StressProfile) Replay(chip *Chip, agingSeed uint64, upto int) {
	if upto > len(p.Steps) {
		upto = len(p.Steps)
	}
	for i := 0; i < upto; i++ {
		p.ApplyStep(chip, agingSeed, i)
	}
}
