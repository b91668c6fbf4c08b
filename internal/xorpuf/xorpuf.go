// Package xorpuf composes parallel MUX arbiter PUFs into an n-input XOR
// arbiter PUF (paper Fig 1) and provides the exact response/stability
// arithmetic for the composed output.
//
// All n member PUFs see the same challenge; their single-bit responses are
// XOR-ed into the final response.  Because each member's evaluation noise is
// independent, the XOR output's per-evaluation response-1 probability has the
// closed form
//
//	P(xor = 1) = (1 − Π_i (1 − 2·p_i)) / 2,
//
// where p_i is member i's response-1 probability — the parity version of the
// inclusion–exclusion identity.  The XOR output is 100 %-stable over a
// counter window exactly when every member is individually stable, which is
// why the usable-CRP fraction decays like 0.8ⁿ (paper Figs 3 and 12).
package xorpuf

import (
	"fmt"

	"xorpuf/internal/challenge"
	"xorpuf/internal/dist"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
)

// XORPUF is an n-input XOR arbiter PUF over member arbiter PUFs.
type XORPUF struct {
	members []*silicon.ArbiterPUF
	depth   int // counter depth for stability accounting
}

// New composes the given member PUFs into an XOR PUF.  counterDepth is the
// measurement window used for stability accounting (the chips' 100,000).
func New(members []*silicon.ArbiterPUF, counterDepth int) *XORPUF {
	if len(members) == 0 {
		panic("xorpuf: need at least one member PUF")
	}
	if counterDepth <= 0 {
		panic("xorpuf: counter depth must be positive")
	}
	stages := members[0].Stages()
	for i, m := range members {
		if m.Stages() != stages {
			panic(fmt.Sprintf("xorpuf: member %d has %d stages, want %d", i, m.Stages(), stages))
		}
	}
	return &XORPUF{members: members, depth: counterDepth}
}

// FromChip composes the first n PUFs of a fabricated chip, using the chip's
// counter depth.
func FromChip(chip *silicon.Chip, n int) *XORPUF {
	if n <= 0 || n > chip.NumPUFs() {
		panic(fmt.Sprintf("xorpuf: width %d out of range [1,%d]", n, chip.NumPUFs()))
	}
	members := make([]*silicon.ArbiterPUF, n)
	for i := range members {
		members[i] = chip.PUF(i)
	}
	return New(members, chip.Params().CounterDepth)
}

// Width returns the number of member PUFs (the paper's n).
func (x *XORPUF) Width() int { return len(x.members) }

// Stages returns the number of MUX stages per member.
func (x *XORPUF) Stages() int { return x.members[0].Stages() }

// CounterDepth returns the stability-accounting window.
func (x *XORPUF) CounterDepth() int { return x.depth }

// Eval performs one noisy evaluation: each member evaluates with independent
// noise from src and the bits are XOR-ed.
func (x *XORPUF) Eval(src *rng.Source, c challenge.Challenge, cond silicon.Condition) uint8 {
	var out uint8
	for _, m := range x.members {
		out ^= m.Eval(src, c, cond)
	}
	return out
}

// NoiselessResponse returns the XOR of the members' sign responses — the
// majority outcome for a stable challenge.
func (x *XORPUF) NoiselessResponse(c challenge.Challenge, cond silicon.Condition) uint8 {
	var out uint8
	for _, m := range x.members {
		if m.Delay(c, cond) > 0 {
			out ^= 1
		}
	}
	return out
}

// ResponseProbability returns the exact single-evaluation probability that
// the XOR output is 1.
func (x *XORPUF) ResponseProbability(c challenge.Challenge, cond silicon.Condition) float64 {
	prod := 1.0
	for _, m := range x.members {
		prod *= 1 - 2*m.ResponseProbability(c, cond)
	}
	return (1 - prod) / 2
}

// StabilityProbability returns the probability that a counter window of the
// configured depth reads the XOR output as 100 %-stable, i.e. that every
// member is individually stable over the window.
func (x *XORPUF) StabilityProbability(c challenge.Challenge, cond silicon.Condition) float64 {
	prob := 1.0
	for _, m := range x.members {
		prob *= m.StabilityProbability(c, cond, x.depth)
	}
	return prob
}

// MeasureSoft measures the XOR output's soft response over trials combined
// evaluations using the exact Binomial counter shortcut.
func (x *XORPUF) MeasureSoft(src *rng.Source, c challenge.Challenge, cond silicon.Condition, trials int) float64 {
	if trials <= 0 {
		panic("xorpuf: MeasureSoft with non-positive trials")
	}
	p := x.ResponseProbability(c, cond)
	return float64(src.Binomial(trials, p)) / float64(trials)
}

// OutputAgreeProbability returns the probability that `trials` repeated XOR
// evaluations all agree.  Unlike StabilityProbability this also counts the
// measure-zero-ish cases where individual members are unstable but their
// instabilities cancel in the XOR.
func (x *XORPUF) OutputAgreeProbability(c challenge.Challenge, cond silicon.Condition, trials int) float64 {
	return dist.AllAgreeProbability(trials, x.ResponseProbability(c, cond))
}

// CRP is one challenge–response pair of the XOR PUF, annotated with the
// exact stability probability it had when generated.
type CRP struct {
	Challenge challenge.Challenge
	Response  uint8
	Stability float64
}

// StableCRPs draws random challenges from challengeSrc and returns the first
// `count` whose XOR output is 100 %-stable (stability probability ≥ minStab)
// together with the noiseless response — the CRP population the paper uses
// for both attack training and authentication.  It also returns the total
// number of challenges examined, so callers can report yield.
func (x *XORPUF) StableCRPs(challengeSrc *rng.Source, count int, cond silicon.Condition, minStab float64) (crps []CRP, examined int) {
	crps = make([]CRP, 0, count)
	for len(crps) < count {
		c := challenge.Random(challengeSrc, x.Stages())
		examined++
		st := x.StabilityProbability(c, cond)
		if st >= minStab {
			crps = append(crps, CRP{
				Challenge: c,
				Response:  x.NoiselessResponse(c, cond),
				Stability: st,
			})
		}
	}
	return crps, examined
}
