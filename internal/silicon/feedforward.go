package silicon

import (
	"fmt"
	"sort"

	"xorpuf/internal/challenge"
	"xorpuf/internal/dist"
	"xorpuf/internal/rng"
)

// FeedForwardLoop routes the race outcome at the output of stage Tap into
// the select input of stage Target (Target > Tap): an intermediate arbiter
// samples which edge is ahead and that bit, not the challenge bit, steers
// the later stage.  Feed-forward loops break the pure linear additive model
// (ref [1]), which is why they resist logistic-regression attacks better
// than plain arbiter PUFs.
type FeedForwardLoop struct {
	Tap    int // stage index whose output is sampled (0-based, inclusive)
	Target int // stage index whose select bit is overridden
}

// FeedForwardPUF is a MUX arbiter PUF with feed-forward loops.  It shares
// the stage-delay fabrication model with ArbiterPUF but must be evaluated
// structurally: the intermediate arbiter decisions make the delay difference
// a piecewise-linear (not linear) function of the parity features.
type FeedForwardPUF struct {
	base  *ArbiterPUF
	loops []FeedForwardLoop
	// tapBias is each loop's intermediate-arbiter offset; intermediate
	// arbiters are physical comparators with their own mismatch.
	tapBias []float64
}

// NewFeedForwardPUF fabricates a feed-forward PUF with the given loops.
// Loops must satisfy 0 ≤ Tap < Target < stages, and no two loops may share
// a target stage.
func NewFeedForwardPUF(src *rng.Source, params Params, loops []FeedForwardLoop) *FeedForwardPUF {
	base := NewArbiterPUF(src.Split("base"), params)
	sorted := append([]FeedForwardLoop(nil), loops...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Target < sorted[j].Target })
	seen := map[int]bool{}
	for _, l := range sorted {
		if l.Tap < 0 || l.Target >= params.Stages || l.Tap >= l.Target {
			panic(fmt.Sprintf("silicon: invalid feed-forward loop %+v for %d stages", l, params.Stages))
		}
		if seen[l.Target] {
			panic(fmt.Sprintf("silicon: duplicate feed-forward target stage %d", l.Target))
		}
		seen[l.Target] = true
	}
	biasSrc := src.Split("tap-bias")
	biases := make([]float64, len(sorted))
	for i := range biases {
		biases[i] = params.ProcessSigma * biasSrc.Norm()
	}
	return &FeedForwardPUF{base: base, loops: sorted, tapBias: biases}
}

// Stages returns the number of MUX stages.
func (p *FeedForwardPUF) Stages() int { return p.base.params.Stages }

// Params returns the fabrication parameters.
func (p *FeedForwardPUF) Params() Params { return p.base.params }

// delay races the two edges structurally, resolving each feed-forward
// arbiter when the race passes its tap stage.  tapNoise, if non-nil, draws
// per-tap evaluation noise (intermediate arbiters are as noisy as the final
// one).
func (p *FeedForwardPUF) delay(c challenge.Challenge, cond Condition, tapNoise func() float64) float64 {
	if len(c) != p.Stages() {
		panic(fmt.Sprintf("silicon: challenge length %d, want %d", len(c), p.Stages()))
	}
	dv := cond.VDD - Nominal.VDD
	dt := cond.TempC - Nominal.TempC
	override := make(map[int]uint8, len(p.loops))
	var top, bottom float64
	loopIdx := 0
	for i := range p.base.stages {
		sel := c[i]
		if b, ok := override[i]; ok {
			sel = b
		}
		d := p.base.stages[i].at(cond)
		if sel == 0 {
			top, bottom = top+d[0], bottom+d[1]
		} else {
			top, bottom = bottom+d[2], top+d[3]
		}
		// Resolve any loops tapping the output of stage i.
		for loopIdx < len(p.loops) && p.loops[loopIdx].Tap == i {
			l := p.loops[loopIdx]
			diff := top - bottom + p.tapBias[loopIdx]
			if tapNoise != nil {
				diff += tapNoise()
			}
			var bit uint8
			if diff > 0 {
				bit = 1
			}
			override[l.Target] = bit
			loopIdx++
		}
	}
	// Loops are sorted by Target, not Tap; re-scan for any loop whose tap
	// we passed out of order.  (With sorted-by-target loops and Tap <
	// Target this scan is a no-op unless taps are unordered.)
	return top - bottom + p.base.bias + p.base.biasV*dv + p.base.biasT*dt
}

// NoiselessResponse returns the majority response bit (no evaluation noise,
// taps resolved noiselessly).
func (p *FeedForwardPUF) NoiselessResponse(c challenge.Challenge, cond Condition) uint8 {
	if p.delay(c, cond, nil) > 0 {
		return 1
	}
	return 0
}

// Eval performs one noisy evaluation: each intermediate arbiter and the
// final arbiter sample independent noise.
func (p *FeedForwardPUF) Eval(src *rng.Source, c challenge.Challenge, cond Condition) uint8 {
	sigma := p.base.params.NoiseSigmaAt(cond)
	d := p.delay(c, cond, func() float64 { return sigma * src.Norm() })
	if d+sigma*src.Norm() > 0 {
		return 1
	}
	return 0
}

// MeasureSoft measures the soft response over trials noisy evaluations.
// Unlike the linear PUF there is no closed-form response probability (the
// tap decisions correlate with the final race), so the counter loops over
// genuine evaluations; keep trials moderate.
func (p *FeedForwardPUF) MeasureSoft(src *rng.Source, c challenge.Challenge, cond Condition, trials int) float64 {
	if trials <= 0 {
		panic("silicon: MeasureSoft with non-positive trials")
	}
	ones := 0
	for i := 0; i < trials; i++ {
		ones += int(p.Eval(src, c, cond))
	}
	return float64(ones) / float64(trials)
}

// ResponseProbabilityNoiselessTaps returns Φ(Δ/σ) with the taps resolved
// noiselessly — the exact single-evaluation probability in the common case
// where every tap race is far from metastable, and a close approximation
// otherwise.
func (p *FeedForwardPUF) ResponseProbabilityNoiselessTaps(c challenge.Challenge, cond Condition) float64 {
	return dist.NormalCDF(p.delay(c, cond, nil) / p.base.params.NoiseSigmaAt(cond))
}
