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
// Δ′ = (…((θ_k + T_0[p_0]) + T_1[p_1]) + …) + T_{m−1}[p_{m−1}], summed left
// to right over the bytes p_j of p, m = 4·⌈k/32⌉.  NewSelector builds the
// 8-stage tables once from 4-stage ones, T_j[v] = N_{2j}[v&15] + N_{2j+1}[v>>4]
// with N_g[v] = Σ_{i<4} (−1)^{v_i}·θ_{4g+i} summed in i order; stages past
// k contribute 0.  That is 256 float64 per 8 stages, 8 KiB per member at
// k = 32.
//
// Δ′ sums the same ±θ_i as the reference Dot(θ, Φ(c)) in a different
// order, so the two can differ by rounding.  Every add rounds with
// relative error at most u = 2⁻⁵³, so a sum computed along a tree of adds
// is within ((1+u)^h − 1)·Σ|θ| of the exact one, h being the most rounding
// adds any one term passes through: h ≤ 4 + m for Δ′ (3 inside N_g, 1
// joining two nibbles, m adding the tables) and h ≤ k for Dot.  So
// |Δ′ − Dot| ≤ (k + m + 5)·u·Σ|θ|, at most 77·u·Σ|θ| for k ≤ 64.  The
// kernel trusts Δ′ only when it lies farther than ε = 2⁻⁴⁵·Σ|θ| = 256·u·Σ|θ|
// (over three times that gap) from both β0·Thr0 and β1·Thr1; inside that
// closed band it recomputes the sum in Dot's order, s = 0, s += ±θ_i for
// i = 0..k−1, s += θ_k, which is bit-identical to Dot because multiplying
// by ±1 is exact.  Rounding is monotone, so comparing the rounded Δ′ − lo
// with ±ε decides the same side as the exact difference would.  A member
// whose θ or β-scaled thresholds are not finite, or whose Σ|θ| is too
// small or too large for ε to be a normal float, always takes that exact
// path.
//
// Next is a block sieve.  It draws up to sieveBlock words, then runs
// member by member over the block's survivor list, compacting it with
// flag arithmetic instead of jumps, so the member loop's early exit costs
// no mispredicted branch; only a pass that meets the band branches, to
// decide those candidates exactly.  Survivors then pass the used-set check
// in draw order.  When the count is reached at slot j of a block of b,
// Next steps the rng back over the b − j − 1 draws it did not examine
// (rng.Source.Unread; SplitMix64's state is a counter).  So Examined,
// every issued word and bit, and the next rng draw equal those of a loop
// that draws, classifies and checks one candidate at a time, which is the
// per-candidate PredictXORFeatures reference.
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
	tab    [][4][256]float64 // 8-stage tables T_j, four per 32 stages
	theta  []float64         // the model's θ, for the exact path
	bias   float64           // θ_k
	lo, hi float64           // β0·Thr0 and β1·Thr1, as Classify computes them
	eps    float64           // certified band half-width; NaN forces the exact path
}

// MaxStages is the widest challenge a Selector serves: the candidate
// kernel and the Word() dedup key cover at most 64 stages.
const MaxStages = 64

// sieveBlock is how many candidates Next draws and classifies at a time;
// survivor indices are bytes.
const sieveBlock = 128

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
		tab:   make([][4][256]float64, (k+31)/32),
		theta: m.Theta,
		bias:  m.Theta[k],
		lo:    beta0 * m.Thr0,
		hi:    beta1 * m.Thr1,
		eps:   math.NaN(),
	}
	// nibble is N_g; stages past k contribute nothing.
	nibble := func(g int) (n [16]float64) {
		for v := range n {
			var t float64
			for i := 0; i < 4 && 4*g+i < k; i++ {
				if v>>uint(i)&1 == 0 {
					t += m.Theta[4*g+i]
				} else {
					t -= m.Theta[4*g+i]
				}
			}
			n[v] = t
		}
		return n
	}
	for q := range mk.tab {
		for i := range mk.tab[q] {
			j := 4*q + i
			lo, hi := nibble(2*j), nibble(2*j+1)
			for v := range mk.tab[q][i] {
				mk.tab[q][i][v] = lo[v&15] + hi[v>>4]
			}
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
// of w.  Its inverse is p ^ p>>1.
func suffixParity(w uint64) uint64 {
	w ^= w >> 1
	w ^= w >> 2
	w ^= w >> 4
	w ^= w >> 8
	w ^= w >> 16
	w ^= w >> 32
	return w
}

// approx is the table-driven prediction Δ′ for the challenge whose
// suffix-parity word is p.
func (mk *memberKernel) approx(p uint64) float64 {
	d := mk.bias
	for q := range mk.tab {
		t := &mk.tab[q]
		d += t[0][uint8(p)]
		d += t[1][uint8(p>>8)]
		d += t[2][uint8(p>>16)]
		d += t[3][uint8(p>>24)]
		p >>= 32
	}
	return d
}

// b2u is 1 for true and 0 for false; the compiler emits a flag set, not a
// jump.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// decideExact classifies the candidate with suffix-parity word p from a
// sum in linalg.Dot's order, so the prediction is bit-identical to the
// reference: stable is 1 for Stable0 or Stable1, one is 1 for Stable1.
func (mk *memberKernel) decideExact(p uint64) (stable, one uint8) {
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
		return 1, 0
	case d > mk.hi:
		return 1, 1
	default:
		return 0, 0
	}
}

// sift is one member's pass over the survivor list idx of a block whose
// suffix-parity words are p: it compacts idx in place to the candidates
// the member predicts stable and XORs the member's predicted bit into
// bit.  The table sum decides with flag arithmetic, so no jump depends on
// a candidate.  A candidate within the certified band around β0·Thr0 or
// β1·Thr1 stays in the list with bit 1 of its bit byte set, and band is 1
// so that settle decides it; eps is NaN for a member that must always
// take the exact path, which makes every comparison false.
func (mk *memberKernel) sift(p []uint64, idx, bit []uint8) (n int, band uint8) {
	e, lo, hi := mk.eps, mk.lo, mk.hi
	for _, j := range idx {
		d := mk.approx(p[j])
		x, y := d-lo, d-hi
		above := b2u(x > e)
		one := above & b2u(y > e)
		stable := b2u(x < -e) | one
		b := 1 ^ stable ^ above&b2u(y < -e) // neither stable nor surely unstable
		idx[n] = j
		n += int(stable | b)
		bit[j] ^= one | b<<1
		band |= b
	}
	return n, band
}

// settle finishes a sift pass that met the band: it decides the flagged
// candidates in linalg.Dot's order, clears their flag and drops those the
// member predicts unstable.
func (mk *memberKernel) settle(p []uint64, idx, bit []uint8) int {
	n := 0
	for _, j := range idx {
		if bit[j]&2 != 0 {
			bit[j] &^= 2
			stable, one := mk.decideExact(p[j])
			bit[j] ^= one
			if stable == 0 {
				continue
			}
		}
		idx[n] = j
		n++
	}
	return n
}

// sieve classifies the candidates whose suffix-parity words are p, member
// by member.  On entry idx[:len(p)] must list 0..len(p)−1 and bit[:len(p)]
// be zero.  It returns n with idx[:n] the candidates every member predicts
// stable, in draw order, and bit[idx[i]] their predicted XOR bits.
func (s *Selector) sieve(p []uint64, idx, bit []uint8) int {
	n := len(p)
	for i := 0; i < len(s.members) && n > 0; i++ {
		mk := &s.members[i]
		m, band := mk.sift(p, idx[:n], bit)
		if band == 1 {
			m = mk.settle(p, idx[:m], bit)
		}
		n = m
	}
	return n
}

// classify is the kernel's verdict on one candidate word, the sieve run on
// a block of one: ChipModel.PredictXORFeatures(Features(FromWord(w, k))).
func (s *Selector) classify(w uint64) (bit uint8, stable bool) {
	p := [1]uint64{suffixParity(w)}
	var idx, bits [1]uint8
	n := s.sieve(p[:], idx[:], bits[:])
	return bits[0], n == 1
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
// maxExamined bounds the search (0 = 10,000 × count); Next examines
// exactly maxExamined candidates unless it finds count first.
func (s *Selector) Next(count, maxExamined int) ([]challenge.Challenge, []uint8, error) {
	if s.budget > 0 && len(s.used)+count > s.budget {
		return nil, nil, &ErrBudgetExhausted{Budget: s.budget, Issued: len(s.used), Wanted: count}
	}
	if maxExamined <= 0 {
		maxExamined = 10000 * count
	}
	cs := make([]challenge.Challenge, 0, count)
	bits := make([]uint8, 0, count)
	var p [sieveBlock]uint64
	var idx, bit [sieveBlock]uint8
	examined := 0
	for len(cs) < count && examined < maxExamined {
		b := min(sieveBlock, maxExamined-examined)
		for j := range p[:b] {
			p[j] = suffixParity(s.src.Uint64() & s.mask)
			idx[j], bit[j] = uint8(j), 0
		}
		n := s.sieve(p[:b], idx[:], bit[:])
		drawn := b // candidates of this block that count as examined
		for _, j := range idx[:n] {
			w := p[j] ^ p[j]>>1 // the word, back from its suffix parity
			if _, dup := s.used[w]; dup {
				continue
			}
			s.used[w] = struct{}{}
			cs = append(cs, challenge.FromWord(w, s.stages))
			bits = append(bits, bit[j])
			if len(cs) == count {
				drawn = int(j) + 1
				break
			}
		}
		// Hand back the draws after the slot that completed count, as
		// if they had never been made.
		s.src.Unread(b - drawn)
		examined += drawn
	}
	s.examined += examined
	if len(cs) < count {
		return cs, bits, &ErrSelectionExhausted{Wanted: count, Found: len(cs), Examined: examined}
	}
	return cs, bits, nil
}
