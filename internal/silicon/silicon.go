// Package silicon is the fabricated-hardware substitute: a calibrated
// Monte-Carlo model of the paper's custom 32 nm MUX arbiter PUF test chips.
//
// Physical model.  Each of the k MUX stages has four path delays (top→top,
// bottom→bottom when the stage is parallel; bottom→top, top→bottom when
// crossed), drawn independently from N(MeanStageDelay, ProcessSigma²) at
// fabrication time.  Propagating a rising edge through the chain and racing
// the two outputs at the arbiter yields the delay difference
//
//	Δ(c) = w · Φ(c)
//
// where Φ is the parity feature vector (package challenge) and w ∈ R^{k+1}
// is the exact linear image of the 4k path delays plus the arbiter's own
// bias — the classical linear additive delay model that the paper (and refs
// [1–5]) fit to silicon.  The package keeps BOTH evaluation paths: the
// structural stage-by-stage race and the closed-form w·Φ product; a property
// test proves them equal, which is the package's substitute for "the additive
// model matches the silicon".
//
// Noise.  Every evaluation adds an independent arbiter/thermal noise sample
// N(0, σ_n²) to Δ before the sign decision, so challenges with |Δ| ≲ 4.35·σ_n
// produce intermittent errors over the 100,000-sample counter window exactly
// as on the real chips.  σ_n is calibrated (see DefaultParams) so that ~80 %
// of random challenges are 100 %-stable on a single PUF at 0.9 V / 25 °C,
// matching Fig 2 (39.7 % stable-0 + 40.1 % stable-1).
//
// Environment.  Each path delay additionally carries voltage and temperature
// sensitivity coefficients (random mismatch; the common-mode part of supply
// and temperature scaling cancels in the difference).  Because the delay→
// weight map is linear, the chip precomputes three weight vectors — nominal,
// ∂w/∂V and ∂w/∂T — and evaluates w(cond) = w + wV·(V−0.9) + wT·(T−25).
// Noise also grows at low supply and high temperature.
package silicon

import (
	"fmt"
	"math"

	"xorpuf/internal/challenge"
	"xorpuf/internal/dist"
	"xorpuf/internal/rng"
)

// Condition is an operating point of the chip.
type Condition struct {
	VDD   float64 // supply voltage in volts
	TempC float64 // temperature in °C
}

// The modeled operating envelope.  The per-path V/T sensitivities are a
// first-order (linear) expansion calibrated against the paper's nine test
// corners — 0.8/0.9/1.0 V crossed with 0/25/60 °C — so the model has no
// physical meaning outside that range, and every entry point that accepts a
// Condition rejects excursions instead of silently extrapolating.
const (
	MinVDD   = 0.8
	MaxVDD   = 1.0
	MinTempC = 0.0
	MaxTempC = 60.0
)

// Nominal is the enrollment condition used throughout the paper.
var Nominal = Condition{VDD: 0.9, TempC: 25}

// Validate rejects conditions outside the modeled 0.8–1.0 V / 0–60 °C
// envelope (and non-finite values), the range the linear V/T sensitivity
// model is calibrated over.
func (c Condition) Validate() error {
	switch {
	case math.IsNaN(c.VDD) || math.IsNaN(c.TempC) || math.IsInf(c.VDD, 0) || math.IsInf(c.TempC, 0):
		return fmt.Errorf("silicon: non-finite condition %gV, %g°C", c.VDD, c.TempC)
	case c.VDD < MinVDD || c.VDD > MaxVDD:
		return fmt.Errorf("silicon: VDD %.3g V outside modeled envelope [%.3g, %.3g] V", c.VDD, MinVDD, MaxVDD)
	case c.TempC < MinTempC || c.TempC > MaxTempC:
		return fmt.Errorf("silicon: temperature %g °C outside modeled envelope [%g, %g] °C", c.TempC, MinTempC, MaxTempC)
	}
	return nil
}

// mustValidate panics on an out-of-envelope condition; the measurement entry
// points treat excursions as API misuse, like a wrong-length challenge.
func (c Condition) mustValidate() {
	if err := c.Validate(); err != nil {
		panic(err.Error())
	}
}

// String renders the condition the way the paper labels plots ("0.9V, 25°C").
func (c Condition) String() string {
	return fmt.Sprintf("%.1fV, %g°C", c.VDD, c.TempC)
}

// Corners returns the paper's nine test conditions: 0.8/0.9/1.0 V crossed
// with 0/25/60 °C (Section 5.2).
func Corners() []Condition {
	volts := []float64{0.8, 0.9, 1.0}
	temps := []float64{0, 25, 60}
	out := make([]Condition, 0, 9)
	for _, v := range volts {
		for _, t := range temps {
			out = append(out, Condition{VDD: v, TempC: t})
		}
	}
	return out
}

// Params describes a fabrication process and measurement setup.
type Params struct {
	// Stages is the number of MUX stages per arbiter PUF (32 on the
	// paper's test chips).
	Stages int
	// MeanStageDelay is the nominal per-path delay in arbitrary units; it
	// is common-mode and cancels in the arbiter's difference, but keeps
	// the structural simulation physical.
	MeanStageDelay float64
	// ProcessSigma is the standard deviation of each path delay's random
	// process variation, in the same units.
	ProcessSigma float64
	// NoiseSigma is the standard deviation of the additive arbiter noise
	// per evaluation at the nominal condition.
	NoiseSigma float64
	// PathVoltSigma is the per-path random voltage-sensitivity mismatch
	// (delay units per volt).
	PathVoltSigma float64
	// PathTempSigma is the per-path random temperature-sensitivity
	// mismatch (delay units per °C).
	PathTempSigma float64
	// NoiseVoltCoeff scales noise with supply droop:
	// σ(V) = σ·(1 + NoiseVoltCoeff·(0.9−V)).
	NoiseVoltCoeff float64
	// NoiseTempCoeff scales noise with temperature:
	// σ(T) = σ·(1 + NoiseTempCoeff·(T−25)).
	NoiseTempCoeff float64
	// CounterDepth is the number of repeated evaluations the on-chip
	// counter averages per soft-response measurement (100,000 in the
	// paper).
	CounterDepth int
}

// noiseToSignalRatio is the calibrated ratio σ_noise/σ_Δ.  With a 100,000-
// deep counter, a challenge is 100 %-stable when |Δ| ≳ 4.35·σ_noise; setting
// σ_noise = 0.0582·σ_Δ makes P(|Δ| > 4.35·σ_noise) = 0.80, reproducing the
// ~80 % single-PUF stable fraction of Fig 2.
const noiseToSignalRatio = 0.0582

// DefaultParams returns the parameter set calibrated against the paper's
// 32 nm measurements.  See DESIGN.md for the calibration derivation.
func DefaultParams() Params {
	const (
		stages       = 32
		processSigma = 1.0
	)
	// Var(Δ) over random challenges = (2k+1)·σ_p² (first and last weights
	// carry one path-difference term each plus the arbiter bias, middle
	// weights two).
	sigmaDelta := processSigma * math.Sqrt(2*stages+1)
	return Params{
		Stages:         stages,
		MeanStageDelay: 10,
		ProcessSigma:   processSigma,
		NoiseSigma:     noiseToSignalRatio * sigmaDelta,
		// Sensitivities sized so the worst corner (±0.1 V, ±35 °C)
		// shifts Δ by ≈1.0·σ_noise RMS per axis — enough to flip
		// marginally stable CRPs, as Fig 11 requires, without
		// destroying solidly stable ones.  The RMS Δ shift at
		// deviation d is √(2k+1)·σ_path·d, so
		// σ_path = σ_noise/(√(2k+1)·d) = ratio·σ_p/d.  This scale
		// makes the V/T-hardened selection cut roughly the extra
		// ~35 % per PUF that the paper's Fig 12 shows
		// (0.545ⁿ → 0.342ⁿ).
		PathVoltSigma:  noiseToSignalRatio * processSigma / 0.1,
		PathTempSigma:  noiseToSignalRatio * processSigma / 35,
		NoiseVoltCoeff: 2.0,
		NoiseTempCoeff: 0.004,
		CounterDepth:   100000,
	}
}

// Validate reports whether the parameters are physically meaningful.  Every
// float field must be finite.
func (p Params) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"MeanStageDelay", p.MeanStageDelay},
		{"ProcessSigma", p.ProcessSigma},
		{"NoiseSigma", p.NoiseSigma},
		{"PathVoltSigma", p.PathVoltSigma},
		{"PathTempSigma", p.PathTempSigma},
		{"NoiseVoltCoeff", p.NoiseVoltCoeff},
		{"NoiseTempCoeff", p.NoiseTempCoeff},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("silicon: %s = %g, want a finite value", f.name, f.v)
		}
	}
	switch {
	case p.Stages <= 0:
		return fmt.Errorf("silicon: Stages = %d, want > 0", p.Stages)
	case p.ProcessSigma <= 0:
		return fmt.Errorf("silicon: ProcessSigma = %g, want > 0", p.ProcessSigma)
	case p.NoiseSigma < 0:
		return fmt.Errorf("silicon: NoiseSigma = %g, want >= 0", p.NoiseSigma)
	case p.CounterDepth <= 0:
		return fmt.Errorf("silicon: CounterDepth = %d, want > 0", p.CounterDepth)
	}
	return nil
}

// NoiseSigmaAt returns the evaluation noise σ at the given condition.
func (p Params) NoiseSigmaAt(cond Condition) float64 {
	s := p.NoiseSigma * (1 + p.NoiseVoltCoeff*(Nominal.VDD-cond.VDD) +
		p.NoiseTempCoeff*(cond.TempC-Nominal.TempC))
	if s < 1e-9*p.NoiseSigma {
		s = 1e-9 * p.NoiseSigma
	}
	return s
}

// stage holds the four path delays of one MUX stage and their environmental
// sensitivities.  Index order: 0 = top→top (parallel), 1 = bottom→bottom
// (parallel), 2 = bottom→top (crossed), 3 = top→bottom (crossed).
type stage struct {
	delay [4]float64
	volt  [4]float64 // ∂delay/∂V mismatch
	temp  [4]float64 // ∂delay/∂T mismatch
}

func (st *stage) at(cond Condition) (d [4]float64) {
	dv := cond.VDD - Nominal.VDD
	dt := cond.TempC - Nominal.TempC
	for i := range d {
		d[i] = st.delay[i] + st.volt[i]*dv + st.temp[i]*dt
	}
	return d
}

// ArbiterPUF is a single fabricated MUX arbiter PUF instance.
type ArbiterPUF struct {
	params Params
	stages []stage
	bias   float64 // arbiter offset, and its sensitivities
	biasV  float64
	biasT  float64

	// Precomputed linear-model weight vectors (length Stages+1).
	wNom []float64 // weights at the nominal condition
	wVol []float64 // ∂w/∂V
	wTmp []float64 // ∂w/∂T
}

// NewArbiterPUF fabricates one PUF instance, drawing all process variation
// from src.
func NewArbiterPUF(src *rng.Source, params Params) *ArbiterPUF {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	p := &ArbiterPUF{
		params: params,
		stages: make([]stage, params.Stages),
	}
	for i := range p.stages {
		st := &p.stages[i]
		for j := 0; j < 4; j++ {
			st.delay[j] = params.MeanStageDelay + params.ProcessSigma*src.Norm()
			st.volt[j] = params.PathVoltSigma * src.Norm()
			st.temp[j] = params.PathTempSigma * src.Norm()
		}
	}
	p.bias = params.ProcessSigma * src.Norm()
	p.biasV = params.PathVoltSigma * src.Norm()
	p.biasT = params.PathTempSigma * src.Norm()
	p.wNom = weightsFrom(p.stages, p.bias, func(st *stage) [4]float64 { return st.delay }, nil)
	p.wVol = weightsFrom(p.stages, p.biasV, func(st *stage) [4]float64 { return st.volt }, nil)
	p.wTmp = weightsFrom(p.stages, p.biasT, func(st *stage) [4]float64 { return st.temp }, nil)
	return p
}

// weightsFrom maps per-stage path quantities to additive-model weights.
// For stage i define σ_i = d_tt − d_bb (parallel skew) and δ_i = d_bt − d_tb
// (crossed skew); then with a_i = (σ_i−δ_i)/2 and b_i = (σ_i+δ_i)/2,
//
//	Δ(c) = Σ_i a_i·Φ_i(c) + b_i·Φ_{i+1}(c) + bias·Φ_k(c),
//
// giving w_0 = a_0, w_i = a_i + b_{i−1}, w_k = b_{k−1} + bias.
func weightsFrom(stages []stage, bias float64, get func(*stage) [4]float64, dst []float64) []float64 {
	k := len(stages)
	if dst == nil {
		dst = make([]float64, k+1)
	}
	var prevB float64
	for i := range stages {
		d := get(&stages[i])
		sigma := d[0] - d[1]
		delta := d[2] - d[3]
		a := (sigma - delta) / 2
		b := (sigma + delta) / 2
		dst[i] = a + prevB
		prevB = b
	}
	dst[k] = prevB + bias
	return dst
}

// Stages returns the number of MUX stages.
func (p *ArbiterPUF) Stages() int { return p.params.Stages }

// Params returns the fabrication parameters.
func (p *ArbiterPUF) Params() Params { return p.params }

// Weights returns the ground-truth additive-model weights at the given
// condition (length Stages+1).  This is oracle access used by tests and
// experiment analysis, not by any attack or protocol code.
func (p *ArbiterPUF) Weights(cond Condition) []float64 {
	dv := cond.VDD - Nominal.VDD
	dt := cond.TempC - Nominal.TempC
	w := make([]float64, len(p.wNom))
	for i := range w {
		w[i] = weight(p.wNom[i], p.wVol[i], p.wTmp[i], dv, dt)
	}
	return w
}

// weight is one stage weight at the offsets dv, dt from Nominal.  Delay and
// the chip's side-by-side read both call it, so they round alike and, on
// ports where Go fuses x*y+z, contract alike.
func weight(nom, vol, tmp, dv, dt float64) float64 {
	return nom + vol*dv + tmp*dt
}

// Delay returns the noiseless arbiter delay difference Δ(c) at cond, via the
// precomputed linear model.
func (p *ArbiterPUF) Delay(c challenge.Challenge, cond Condition) float64 {
	if len(c) != p.params.Stages {
		panic(fmt.Sprintf("silicon: challenge length %d, want %d", len(c), p.params.Stages))
	}
	return p.delay(c, cond.VDD-Nominal.VDD, cond.TempC-Nominal.TempC)
}

// delay is Delay at the offsets dv, dt from Nominal, for a challenge of the
// right length.  It inlines the Φ computation to avoid allocating feature
// vectors in the hot measurement loops: suffix parities accumulate
// right-to-left.  phi holds the bits of the float ±1: the parity of
// c_i..c_{k−1} is XORed into its sign bit, so it is exactly Φ_i without a
// jump on a challenge bit, and w·Φ_i is exact.
func (p *ArbiterPUF) delay(c challenge.Challenge, dv, dt float64) float64 {
	k := len(c)
	wNom, wVol, wTmp := p.wNom[:k+1], p.wVol[:k+1], p.wTmp[:k+1]
	sum := weight(wNom[k], wVol[k], wTmp[k], dv, dt)
	phi := math.Float64bits(1)
	for i := k - 1; i >= 0; i-- {
		phi ^= uint64(c[i]&1) << 63
		sum += weight(wNom[i], wVol[i], wTmp[i], dv, dt) * math.Float64frombits(phi)
	}
	return sum
}

// StructuralDelay computes Δ(c) by racing the two edges stage by stage, the
// way the physical circuit does.  It must agree with Delay to floating-point
// accuracy; the silicon test suite enforces this.
func (p *ArbiterPUF) StructuralDelay(c challenge.Challenge, cond Condition) float64 {
	if len(c) != p.params.Stages {
		panic(fmt.Sprintf("silicon: challenge length %d, want %d", len(c), p.params.Stages))
	}
	var top, bottom float64
	for i := range p.stages {
		d := p.stages[i].at(cond)
		if c[i] == 0 {
			top, bottom = top+d[0], bottom+d[1]
		} else {
			top, bottom = bottom+d[2], top+d[3]
		}
	}
	dv := cond.VDD - Nominal.VDD
	dt := cond.TempC - Nominal.TempC
	return top - bottom + p.bias + p.biasV*dv + p.biasT*dt
}

// ResponseProbability returns the exact probability that a single noisy
// evaluation returns 1: Φ(Δ/σ_n).
func (p *ArbiterPUF) ResponseProbability(c challenge.Challenge, cond Condition) float64 {
	return dist.NormalCDF(p.Delay(c, cond) / p.params.NoiseSigmaAt(cond))
}

// Eval performs one noisy evaluation, drawing the arbiter noise from src.
func (p *ArbiterPUF) Eval(src *rng.Source, c challenge.Challenge, cond Condition) uint8 {
	if p.Delay(c, cond)+p.params.NoiseSigmaAt(cond)*src.Norm() > 0 {
		return 1
	}
	return 0
}

// MeasureSoft measures the soft response (fraction of 1s over trials
// evaluations) using the counter model: the count is drawn from its exact
// Binomial distribution instead of looping over trials evaluations.
func (p *ArbiterPUF) MeasureSoft(src *rng.Source, c challenge.Challenge, cond Condition, trials int) float64 {
	if trials <= 0 {
		panic("silicon: MeasureSoft with non-positive trials")
	}
	prob := p.ResponseProbability(c, cond)
	return float64(src.Binomial(trials, prob)) / float64(trials)
}

// StabilityProbability returns the exact probability that a counter window
// of the given depth reads 100 % stable (all 0s or all 1s) for challenge c.
func (p *ArbiterPUF) StabilityProbability(c challenge.Challenge, cond Condition, depth int) float64 {
	return dist.AllAgreeProbability(depth, p.ResponseProbability(c, cond))
}
