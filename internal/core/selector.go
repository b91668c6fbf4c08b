package core

import (
	"fmt"
	"math"
	"sort"

	"xorpuf/internal/challenge"
	"xorpuf/internal/rng"
)

// Selector is the server-side stateful challenge source of paper Fig 7: it
// draws random challenges, keeps only those predicted stable, and *records*
// every challenge it has ever issued so none is reused across
// authentication sessions (reuse would hand an eavesdropper consistent CRPs
// and invite replay).
//
// Candidates are classified on the raw challenge word, never as
// Challenge objects.  w = src.Uint64() & mask is exactly the draw
// challenge.Random makes for k ≤ 64 stages, and its suffix-parity word p
// (bit i = parity of bits i..k−1 of w) gives every feature at once:
// Φ_i = (−1)^{p_i}.  Each member PUF's prediction is then
// Δ′ = θ_k + Σ_j T_j[nibble_j(p)], where the nibble table
// T_j[v] = Σ_{i<4} (−1)^{v_i}·θ_{4j+i} is built once by NewSelector
// (16 float64 per 4 stages).
//
// Δ′ sums the same ±θ_i as the reference Dot(θ, Φ(c)) in a different
// order, so the two can differ by rounding, but by at most
// (k + ⌈k/4⌉ + 4)·2⁻⁵³·Σ|θ|.  The kernel trusts Δ′ only when it lies
// farther than ε = 2⁻⁴⁵·Σ|θ| (at least twice that gap for k ≤ 64) from
// both β0·Thr0 and β1·Thr1; inside that closed band it recomputes the sum
// in Dot's order, s = 0, s += ±θ_i for i = 0..k−1, s += θ_k, which is
// bit-identical to Dot because multiplying by ±1 is exact.  A member whose
// θ or β-scaled thresholds are not finite, or whose Σ|θ| is too small or
// too large for ε to be a normal float, always takes that exact path.
// Every classification, and so every issued word, bit, Examined count and
// rng position, equals the per-candidate PredictXORFeatures reference.
//
// The tables and band are built from the model at NewSelector, which also
// keeps the model's θ slices for the exact path: the model must not be
// mutated afterwards (re-enrollment builds a new Selector).
//
// A Selector is not safe for concurrent use; wrap it in the caller's lock
// (netauth.Server does).
type Selector struct {
	src     *rng.Source
	used    map[uint64]struct{}
	budget  int            // lifetime cap on issued challenges; 0 = unlimited
	stages  int            // k
	mask    uint64         // the low k bits
	members []memberKernel // in the model's member order
	// examined counts every random candidate drawn by Next over the
	// selector's lifetime, accepted or not.
	examined int
}

// memberKernel is one member PUF's precomputed classifier.
type memberKernel struct {
	nib    [][16]float64 // nibble tables T_j
	theta  []float64     // the model's θ, for the exact path
	bias   float64       // θ_k
	lo, hi float64       // β0·Thr0 and β1·Thr1, as Classify computes them
	eps    float64       // certified band half-width; NaN forces the exact path
}

// MaxStages is the widest challenge a Selector serves: the candidate
// kernel and the Word() dedup key cover at most 64 stages.
const MaxStages = 64

// Bounds on Σ|θ| inside which ε = 2⁻⁴⁵·Σ|θ| is a normal float and no
// table entry or partial sum can overflow.
const (
	minCertifiedMass = 0x1p-960
	maxCertifiedMass = 0x1p960
)

// NewSelector creates a selector for an enrolled chip model.  src drives
// challenge generation.  It panics on an empty model, on more than
// MaxStages stages, and on members whose θ lengths differ.
func NewSelector(model *ChipModel, src *rng.Source) *Selector {
	if model == nil || model.Width() == 0 {
		panic("core: NewSelector with empty model")
	}
	k := model.Stages()
	if k < 1 || k > MaxStages {
		panic(fmt.Sprintf("core: NewSelector with %d stages, want 1..%d", k, MaxStages))
	}
	s := &Selector{
		src:     src,
		used:    make(map[uint64]struct{}),
		stages:  k,
		mask:    ^uint64(0) >> uint(64-k),
		members: make([]memberKernel, model.Width()),
	}
	for i, m := range model.PUFs {
		if m.Stages() != k {
			panic(fmt.Sprintf("core: NewSelector: member %d has %d stages, member 0 has %d", i, m.Stages(), k))
		}
		s.members[i] = newMemberKernel(m, model.Beta0, model.Beta1)
	}
	return s
}

func newMemberKernel(m *PUFModel, beta0, beta1 float64) memberKernel {
	k := m.Stages()
	mk := memberKernel{
		nib:   make([][16]float64, (k+3)/4),
		theta: m.Theta,
		bias:  m.Theta[k],
		lo:    beta0 * m.Thr0,
		hi:    beta1 * m.Thr1,
		eps:   math.NaN(),
	}
	for j := range mk.nib {
		for v := range mk.nib[j] {
			var t float64
			for i := 0; i < 4 && 4*j+i < k; i++ {
				if v>>uint(i)&1 == 0 {
					t += m.Theta[4*j+i]
				} else {
					t -= m.Theta[4*j+i]
				}
			}
			mk.nib[j][v] = t
		}
	}
	var mass float64
	for _, th := range m.Theta {
		mass += math.Abs(th)
	}
	// NaN and ±Inf fail every one of these comparisons.
	if mass >= minCertifiedMass && mass <= maxCertifiedMass &&
		math.Abs(mk.lo) <= math.MaxFloat64 && math.Abs(mk.hi) <= math.MaxFloat64 {
		mk.eps = mass * 0x1p-45
	}
	return mk
}

// suffixParity returns the word whose bit i is the parity of bits i..63
// of w.
func suffixParity(w uint64) uint64 {
	w ^= w >> 1
	w ^= w >> 2
	w ^= w >> 4
	w ^= w >> 8
	w ^= w >> 16
	w ^= w >> 32
	return w
}

// approx is the table-driven prediction Δ′ = θ_k + Σ_j T_j[nibble_j(p)]
// for the challenge whose suffix-parity word is p.  Even and odd nibbles
// go to separate accumulators to halve the chain of dependent adds; the
// rounding bound counts adds, not their order.
func (mk *memberKernel) approx(p uint64) float64 {
	d, e := mk.bias, 0.0
	nib := mk.nib
	for len(nib) >= 2 {
		d += nib[0][p&15]
		e += nib[1][p>>4&15]
		p >>= 8
		nib = nib[2:]
	}
	if len(nib) == 1 {
		d += nib[0][p&15]
	}
	return d + e
}

// classifyExact sums in linalg.Dot's order, so the prediction is
// bit-identical to the reference.
func (mk *memberKernel) classifyExact(p uint64) Category {
	k := len(mk.theta) - 1
	var d float64
	for i, th := range mk.theta[:k] {
		if p>>uint(i)&1 == 0 {
			d += th
		} else {
			d += -th
		}
	}
	d += mk.theta[k]
	switch {
	case d < mk.lo:
		return Stable0
	case d > mk.hi:
		return Stable1
	default:
		return Unstable
	}
}

// classify is ChipModel.PredictXORFeatures(Features(FromWord(w, k))),
// with the same member order and early exit.  A member's table sum
// decides its category only outside the certified band around β0·Thr0
// and β1·Thr1; eps is NaN for a member that must always take the exact
// path, which makes every band comparison false.
func (s *Selector) classify(w uint64) (bit uint8, stable bool) {
	p := suffixParity(w)
	for i := range s.members {
		mk := &s.members[i]
		d := mk.approx(p)
		x, y := d-mk.lo, d-mk.hi
		var cat Category
		switch {
		case x < -mk.eps:
			cat = Stable0
		case x > mk.eps && y < -mk.eps:
			cat = Unstable
		case x > mk.eps && y > mk.eps:
			cat = Stable1
		default:
			cat = mk.classifyExact(p)
		}
		switch cat {
		case Unstable:
			return 0, false
		case Stable1:
			bit ^= 1
		}
	}
	return bit, true
}

// Issued returns how many distinct challenges have been handed out.
func (s *Selector) Issued() int { return len(s.used) }

// Examined returns how many random candidates Next has drawn so far, the
// denominator of the selection yield (paper Fig 12).
func (s *Selector) Examined() int { return s.examined }

// SetBudget caps the lifetime number of challenges this selector may
// issue; 0 removes the cap.  Because issued challenges are never reused,
// every authentication attempt — including ones that fail in transit —
// permanently burns budget, so a verifier can bound how many CRPs a chip
// exposes to eavesdroppers and modeling attacks over its lifetime.
func (s *Selector) SetBudget(n int) {
	if n < 0 {
		n = 0
	}
	s.budget = n
}

// Budget returns the lifetime cap (0 = unlimited).
func (s *Selector) Budget() int { return s.budget }

// Remaining returns how many challenges may still be issued, or -1 if the
// selector is unbudgeted.
func (s *Selector) Remaining() int {
	if s.budget == 0 {
		return -1
	}
	if r := s.budget - len(s.used); r > 0 {
		return r
	}
	return 0
}

// ErrBudgetExhausted is returned when issuing the requested challenges
// would exceed the selector's lifetime budget.  Nothing is issued — a
// partial session would burn CRPs without ever producing a verdict.
type ErrBudgetExhausted struct {
	Budget, Issued, Wanted int
}

func (e *ErrBudgetExhausted) Error() string {
	return fmt.Sprintf("core: challenge budget exhausted: %d issued of %d, cannot issue %d more",
		e.Issued, e.Budget, e.Wanted)
}

// SelectorState is the portable persistent state of a Selector: everything a
// verifier must retain across process lifetimes to keep the never-reuse
// guarantee.  The rng stream deliberately is NOT part of the state — a
// restarted selector may regenerate old candidate challenges, but the Used
// set filters them out, so no challenge is ever issued twice.
type SelectorState struct {
	// Used holds the Word() keys of every challenge ever issued, sorted
	// ascending so that equal states serialize identically.
	Used []uint64
	// Budget is the lifetime issuance cap (0 = unlimited).
	Budget int
}

// ExportState returns a deterministic snapshot of the selector's
// issued-challenge set and budget.
func (s *Selector) ExportState() SelectorState {
	words := make([]uint64, 0, len(s.used))
	for w := range s.used {
		words = append(words, w)
	}
	sort.Slice(words, func(i, j int) bool { return words[i] < words[j] })
	return SelectorState{Used: words, Budget: s.budget}
}

// ImportState replaces the selector's issued set and budget with st —
// typically state exported by an earlier process lifetime.
func (s *Selector) ImportState(st SelectorState) {
	used := make(map[uint64]struct{}, len(st.Used))
	for _, w := range st.Used {
		used[w] = struct{}{}
	}
	s.used = used
	s.budget = st.Budget
	if s.budget < 0 {
		s.budget = 0
	}
}

// MarkUsed records challenge words as already issued without generating
// anything — the hook for replaying an issuance journal over an imported
// snapshot.  Marking a word twice is harmless.
func (s *Selector) MarkUsed(words ...uint64) {
	for _, w := range words {
		s.used[w] = struct{}{}
	}
}

// Next returns count fresh predicted-stable challenges and their predicted
// XOR bits.  Challenges issued by earlier calls are never repeated.
// maxExamined bounds the search (0 = 10,000 × count).
func (s *Selector) Next(count, maxExamined int) ([]challenge.Challenge, []uint8, error) {
	if s.budget > 0 && len(s.used)+count > s.budget {
		return nil, nil, &ErrBudgetExhausted{Budget: s.budget, Issued: len(s.used), Wanted: count}
	}
	if maxExamined <= 0 {
		maxExamined = 10000 * count
	}
	cs := make([]challenge.Challenge, 0, count)
	bits := make([]uint8, 0, count)
	examined := 0
	for len(cs) < count && examined < maxExamined {
		w := s.src.Uint64() & s.mask
		examined++
		bit, stable := s.classify(w)
		if !stable {
			continue
		}
		if _, dup := s.used[w]; dup {
			continue
		}
		s.used[w] = struct{}{}
		cs = append(cs, challenge.FromWord(w, s.stages))
		bits = append(bits, bit)
	}
	s.examined += examined
	if len(cs) < count {
		return cs, bits, &ErrSelectionExhausted{Wanted: count, Found: len(cs), Examined: examined}
	}
	return cs, bits, nil
}
