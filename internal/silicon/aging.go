package silicon

import (
	"math"

	"xorpuf/internal/rng"
)

// Age applies permanent transistor aging to the PUF (BTI/HCI-style drift):
// every path delay gains an independent random increment with standard
// deviation driftSigma (delay units).  The common-mode slowdown of aging
// cancels at the arbiter, so only the random mismatch component matters for
// responses — which is exactly what this models.
//
// Aging is irreversible and cumulative: calling Age twice with σ applies a
// total drift of √2·σ.  The linear-model weight vectors are rebuilt so the
// closed-form and structural evaluations stay consistent.  A negative, NaN
// or infinite drift panics before any weight changes.
func (p *ArbiterPUF) Age(src *rng.Source, driftSigma float64) {
	if driftSigma < 0 {
		panic("silicon: negative aging drift")
	}
	if math.IsNaN(driftSigma) || math.IsInf(driftSigma, 0) {
		panic("silicon: non-finite aging drift")
	}
	if driftSigma == 0 {
		return
	}
	for i := range p.stages {
		for j := 0; j < 4; j++ {
			p.stages[i].delay[j] += driftSigma * src.Norm()
		}
	}
	p.bias += driftSigma * src.Norm()
	p.wNom = weightsFrom(p.stages, p.bias, func(st *stage) [4]float64 { return st.delay }, p.wNom)
}

// Age ages every PUF on the chip with independent drifts.
func (c *Chip) Age(src *rng.Source, driftSigma float64) {
	for i, p := range c.pufs {
		p.Age(src.Fork("age", i), driftSigma)
	}
}
