package silicon

import (
	"errors"
	"fmt"
	"math"

	"xorpuf/internal/challenge"
	"xorpuf/internal/rng"
	"xorpuf/internal/telemetry"
)

// Measurement counters, captured once from the Default registry.  Counting
// happens at Chip-method granularity with batched adds — one atomic add per
// readout, not per arbiter chain — so enrollment's million-evaluation inner
// loops see no added contention.
var (
	evaluationsTotal = telemetry.Default.Counter("silicon_evaluations_total")
	softMeasurements = telemetry.Default.Counter("silicon_soft_measurements_total")
)

// ErrFusesBlown is returned when individual-PUF access is attempted after
// the one-time enrollment fuses have been blown.
var ErrFusesBlown = errors.New("silicon: fuses blown, individual PUF access disabled")

// Chip models one packaged test chip: n parallel arbiter PUFs sharing a
// challenge input, an n-input XOR on their outputs, per-PUF counters for
// soft-response measurement, and one-time fuses that gate individual-PUF
// observability (paper Fig 5).
//
// Before BlowFuses, an authorized tester can read each PUF's hard response
// and counter-averaged soft response (enrollment phase).  After BlowFuses,
// only the XOR of all responses is observable (authentication phase), which
// is what makes the XOR construction resistant to modeling.
//
// A Chip is not safe for concurrent use: every read draws from its one
// noise stream.
type Chip struct {
	params Params
	pufs   []*ArbiterPUF
	noise  *rng.Source // evaluation-noise stream for this chip's tester
	blown  bool
}

// NewChip fabricates a chip with n arbiter PUFs.  All process variation and
// the chip's measurement noise stream derive deterministically from src, so
// a chip is reproducible from (seed, chip index).
func NewChip(src *rng.Source, params Params, n int) *Chip {
	if n <= 0 {
		panic(fmt.Sprintf("silicon: chip needs at least one PUF, got %d", n))
	}
	c := &Chip{
		params: params,
		pufs:   make([]*ArbiterPUF, n),
		noise:  src.Split("noise"),
	}
	for i := range c.pufs {
		c.pufs[i] = NewArbiterPUF(src.Fork("puf", i), params)
	}
	return c
}

// NumPUFs returns the number of parallel arbiter PUFs on the chip.
func (c *Chip) NumPUFs() int { return len(c.pufs) }

// Stages returns the number of MUX stages per PUF.
func (c *Chip) Stages() int { return c.params.Stages }

// Params returns the chip's fabrication/measurement parameters.
func (c *Chip) Params() Params { return c.params }

// BlowFuses permanently disables individual-PUF access.  It is idempotent.
func (c *Chip) BlowFuses() { c.blown = true }

// FusesBlown reports whether enrollment access has been disabled.
func (c *Chip) FusesBlown() bool { return c.blown }

// ReadIndividual performs one noisy evaluation of PUF i.  It fails once the
// fuses are blown.
func (c *Chip) ReadIndividual(i int, ch challenge.Challenge, cond Condition) (uint8, error) {
	if c.blown {
		return 0, ErrFusesBlown
	}
	if err := cond.Validate(); err != nil {
		return 0, err
	}
	evaluationsTotal.Inc()
	return c.pufs[i].Eval(c.noise, ch, cond), nil
}

// SoftResponse measures PUF i's soft response with the on-chip counter
// (CounterDepth repeated evaluations).  It fails once the fuses are blown.
func (c *Chip) SoftResponse(i int, ch challenge.Challenge, cond Condition) (float64, error) {
	if c.blown {
		return 0, ErrFusesBlown
	}
	if err := cond.Validate(); err != nil {
		return 0, err
	}
	softMeasurements.Inc()
	evaluationsTotal.Add(uint64(c.params.CounterDepth))
	return c.pufs[i].MeasureSoft(c.noise, ch, cond, c.params.CounterDepth), nil
}

// ReadXOR performs one noisy evaluation of every PUF and returns the XOR of
// the n responses — the only output available during authentication.  Like a
// wrong-length challenge, a condition outside the modeled V/T envelope is
// API misuse and panics; validate operator-supplied conditions with
// Condition.Validate first.
func (c *Chip) ReadXOR(ch challenge.Challenge, cond Condition) uint8 {
	cond.mustValidate()
	return c.readXOR(c.pufs, ch, cond)
}

// ReadXORSubset evaluates the XOR over the first n PUFs only, letting one
// fabricated chip stand in for XOR PUFs of every width up to NumPUFs — the
// same methodology the paper uses for its n-sweep plots.
func (c *Chip) ReadXORSubset(n int, ch challenge.Challenge, cond Condition) uint8 {
	if n <= 0 || n > len(c.pufs) {
		panic(fmt.Sprintf("silicon: XOR subset width %d out of range [1,%d]", n, len(c.pufs)))
	}
	cond.mustValidate()
	return c.readXOR(c.pufs[:n], ch, cond)
}

// readXOR returns the XOR of one Eval of each of pufs, in order, on the
// chip's noise stream: the same bits and the same stream position.  The
// delays are summed four chains at a time, each in Delay's order, so the
// four dependent add chains overlap; the noise is drawn member by member
// through rng.Source.NoisyPositive, which skips the logarithm when the draw
// cannot flip the bit.  cond must already be valid.
func (c *Chip) readXOR(pufs []*ArbiterPUF, ch challenge.Challenge, cond Condition) uint8 {
	if len(ch) != c.params.Stages {
		panic(fmt.Sprintf("silicon: challenge length %d, want %d", len(ch), c.params.Stages))
	}
	evaluationsTotal.Add(uint64(len(pufs)))
	dv := cond.VDD - Nominal.VDD
	dt := cond.TempC - Nominal.TempC
	sigma := c.params.NoiseSigmaAt(cond)
	var x uint8
	for ; len(pufs) >= 4; pufs = pufs[4:] {
		for _, d := range delay4(pufs[:4], ch, dv, dt) {
			x ^= c.noisyBit(d, sigma)
		}
	}
	for _, p := range pufs {
		x ^= c.noisyBit(p.delay(ch, dv, dt), sigma)
	}
	return x
}

// noisyBit is Eval's decision for delay d at noise σ sigma.
func (c *Chip) noisyBit(d, sigma float64) uint8 {
	if c.noise.NoisyPositive(d, sigma) {
		return 1
	}
	return 0
}

// delay4 returns the delays of four PUFs side by side: one pass over the
// stages with four accumulators.  Each adds the same terms in the same
// order as ArbiterPUF.delay, so each is bit-identical to it.
func delay4(ps []*ArbiterPUF, c challenge.Challenge, dv, dt float64) [4]float64 {
	k := len(c)
	n0, v0, t0 := ps[0].wNom[:k+1], ps[0].wVol[:k+1], ps[0].wTmp[:k+1]
	n1, v1, t1 := ps[1].wNom[:k+1], ps[1].wVol[:k+1], ps[1].wTmp[:k+1]
	n2, v2, t2 := ps[2].wNom[:k+1], ps[2].wVol[:k+1], ps[2].wTmp[:k+1]
	n3, v3, t3 := ps[3].wNom[:k+1], ps[3].wVol[:k+1], ps[3].wTmp[:k+1]
	s0 := weight(n0[k], v0[k], t0[k], dv, dt)
	s1 := weight(n1[k], v1[k], t1[k], dv, dt)
	s2 := weight(n2[k], v2[k], t2[k], dv, dt)
	s3 := weight(n3[k], v3[k], t3[k], dv, dt)
	phi := math.Float64bits(1)
	for i := k - 1; i >= 0; i-- {
		phi ^= uint64(c[i]&1) << 63
		f := math.Float64frombits(phi)
		s0 += weight(n0[i], v0[i], t0[i], dv, dt) * f
		s1 += weight(n1[i], v1[i], t1[i], dv, dt) * f
		s2 += weight(n2[i], v2[i], t2[i], dv, dt) * f
		s3 += weight(n3[i], v3[i], t3[i], dv, dt) * f
	}
	return [4]float64{s0, s1, s2, s3}
}

// PUF returns direct oracle access to PUF i, bypassing the fuses.  This is
// ground-truth access for experiments and tests (e.g. computing exact
// stability probabilities); protocol and attack code must go through
// ReadIndividual/SoftResponse/ReadXOR instead.
func (c *Chip) PUF(i int) *ArbiterPUF { return c.pufs[i] }

// XORStabilityProbability returns the exact probability that the width-n XOR
// output is 100 % stable over a counter window of the chip's depth: every
// individual PUF must be stable, and stabilities are independent given the
// fabricated delays.
func (c *Chip) XORStabilityProbability(n int, ch challenge.Challenge, cond Condition) float64 {
	if n <= 0 || n > len(c.pufs) {
		panic(fmt.Sprintf("silicon: XOR width %d out of range [1,%d]", n, len(c.pufs)))
	}
	prob := 1.0
	for _, p := range c.pufs[:n] {
		prob *= p.StabilityProbability(ch, cond, c.params.CounterDepth)
	}
	return prob
}

// FabricateLot fabricates count chips with n PUFs each, seeded as
// independent streams of src — the equivalent of the paper's 10-chip lot.
func FabricateLot(src *rng.Source, params Params, count, n int) []*Chip {
	chips := make([]*Chip, count)
	for i := range chips {
		chips[i] = NewChip(src.Fork("chip", i), params, n)
	}
	return chips
}
