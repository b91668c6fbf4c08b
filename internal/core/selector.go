package core

import (
	"fmt"
	"math"
	"slices"

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
// Φ_i = (−1)^{p_i}.  A member's reference prediction is
// Dot = (…((0 + Φ_0·θ_0) + Φ_1·θ_1) + …) + θ_k, linalg.Dot's order.
//
// Lanes.  Members are grouped three at a time in model order; the last
// group may hold one or two.  A group keeps m = 4·⌈k/32⌉ tables of 256
// uint64, one per 8 stages, and an entry packs one 21-bit lane per member,
// member i of the group at bit 21·i.  A candidate costs one start constant
// plus m table adds for three members.  Per member, S is the power of two
// with 2¹⁶ ≤ S·Σ|θ| < 2¹⁷, so scaling by S is exact (short of underflow
// below 2⁻¹⁰²², far under the rounding below).  With the float 8-stage sums
// T_j[v] = N_{2j}[v&15] + N_{2j+1}[v>>4], N_g[v] = Σ_{i<4} (−1)^{v_i}·θ_{4g+i}
// summed in i order (θ taken as 0 past stage k), the member's lane entry
// is round(S·T_j[v]) + o_j, rounding to nearest with ties to even, where
// o_j = ⌈S·Σ|θ_i|⌉ + 1 over the table's 8 stages exceeds every
// |round(S·T_j[v])|.  Its start constant is 2¹⁹ + round(S·θ_k) − Σ_j o_j,
// so the lane's final value is d = 2¹⁹ + round(S·θ_k) + Σ_j round(S·T_j[p_j]).
// One word's terms sum to at most S·Σ|θ| < 2¹⁷ in magnitude (up to float
// rounding), so d lies within 2¹⁷ + (m+1)/2 of 2¹⁹ and the start constant
// within 2¹⁷ + 2m + 1.  Entries are non-negative, so every partial sum
// lies between the two: inside (0, 2²⁰), and no carry or borrow crosses a
// lane.
//
// Band margin.  Let x = S·Dot, a real number.  The m + 1 roundings move
// the lane by at most ½ each; the float sums T_j and Dot differ from the
// exact Σ±θ_i + θ_k by at most (4 + k)·u·Σ|θ| together (u = 2⁻⁵³, every
// term passing at most 4 rounding adds inside a T_j and k inside Dot),
// within the 77·u·Σ|θ| that covers k ≤ 64.  So
// |d − 2¹⁹ − x| ≤ (m+1)/2 + 77·u·S·Σ|θ| < E = m/2 + 1, since
// 77·u·2¹⁷ < 2⁻²⁹: E = 3 at k ≤ 32 (m = 4) and E = 5 at 33–64 (m = 8).
// With L = S·β0·Thr0 and H = S·β1·Thr1, the flag of threshold t is bit 20
// of the lane d + 2²⁰ − t, set iff d ≥ t; one 64-bit add makes it for all
// three lanes.  Four thresholds per lane:
//
//	loMay   t = 2¹⁹ + ⌈L⌉ − E   clear ⇒ x < ⌈L⌉ − 1 < L: Stable0
//	loNot   t = 2¹⁹ + ⌈L⌉ + E   set ⇒ x > ⌈L⌉ ≥ L: not Stable0
//	hiSure  t = max(2¹⁹ + ⌊H⌋ + E + 1, loNot's t)
//	                            set ⇒ x > ⌊H⌋ + 1 > H, not Stable0: Stable1
//	hiMay   t = 2¹⁹ + ⌊H⌋ − E + 1   clear ⇒ x < ⌊H⌋ ≤ H: not Stable1
//
// (x < L ⇔ Dot < β0·Thr0 and x > H ⇔ Dot > β1·Thr1, S being positive.)
// A lane is surely stable when loMay is clear or hiSure set, its bit being
// hiSure, and surely unstable when loNot is set and hiMay clear; the
// thresholds' order (loMay < loNot ≤ hiSure, hiMay < hiSure) makes the two
// exclusive.  ⌈L⌉ and ⌊H⌋ are taken of the float product, exact except
// where it underflows, which |L| < 1 and the sign decide.  Every d lies in
// [1, 2²⁰), so a t ≤ 1 sets its flag on every candidate and a t ≥ 2²⁰ on
// none: clamping each t into [1, 2²⁰] changes no flag and keeps the order.
//
// A group keeps a candidate when every lane is surely stable, with the
// parity of the hiSure flags as its predicted bit; drops it when any lane
// is surely unstable; and otherwise flags it for settle, which decides
// each of the group's members in linalg.Dot's order, s = 0, s += ±θ_i for
// i = 0..k−1, s += θ_k, bit-identical to Dot because multiplying by ±1 is
// exact.  An unused lane of a short group is all zero (entries, start,
// threshold adds), so its flags stay clear: stable with bit 0.  A member
// whose θ or β-scaled thresholds are not finite, or whose Σ|θ| lies
// outside [2⁻⁹⁶⁰, 2⁹⁶⁰] (so S is a normal float), gets zero entries, start
// 2¹⁹ and thresholds that make its lane neither surely stable nor surely
// unstable on every candidate: it always takes the exact path.
//
// Next is a block sieve.  It draws up to sieveBlock words and stores their
// suffix-parity words.  The first group's pass walks that block directly
// and runs only the surely-unstable test, keeping each candidate's slot
// in a survivor list; at n = 10 with V/T-hardened β it drops about nine
// candidates in ten, and only the survivors pay for the full verdict
// (keep, band, predicted bit).  Every group, the first included, then
// runs over the survivor list, compacting it with flag arithmetic instead
// of jumps, so the group loop's early exit costs no mispredicted branch;
// only a pass that meets the band branches, to decide those candidates
// exactly.  Survivors then pass the used-set check
// (a wordSet, one insert per survivor) in draw order.  When the count is
// reached at slot j of a block of b, Next steps the rng back over the
// b − j − 1 draws it did not examine (rng.Source.Unread; SplitMix64's
// state is a counter).  So Examined, every issued word and bit, and the
// next rng draw equal those of a loop that draws, classifies and checks
// one candidate at a time, which is the per-candidate PredictXORFeatures
// reference.
//
// The tables are built from the model at NewSelector, which also keeps
// the model's θ slices for the exact path: the model must not be mutated
// afterwards (re-enrollment builds a new Selector).
//
// A Selector is not safe for concurrent use; wrap it in the caller's lock
// (netauth.Server does).
type Selector struct {
	src    *rng.Source
	used   wordSet
	budget int           // lifetime cap on issued challenges; 0 = unlimited
	stages int           // k
	mask   uint64        // the low k bits
	groups []groupKernel // three members each, in the model's member order
	// examined counts every random candidate drawn by Next over the
	// selector's lifetime, accepted or not.
	examined int
}

// memberKernel is one member PUF's exact classifier.
type memberKernel struct {
	theta  []float64 // the model's θ
	lo, hi float64   // β0·Thr0 and β1·Thr1, as Classify computes them
}

// groupKernel classifies up to three members at once, one lane each.
type groupKernel struct {
	tab     [][4][256]uint64 // 8-stage tables T_j, four per 32 stages
	start   uint64           // the lanes' start constants
	loMay   uint64           // per lane 2²⁰ − t for each threshold t
	loNot   uint64
	hiSure  uint64
	hiMay   uint64
	members []memberKernel // the group's members, for settle
}

// Lane geometry: groupSize 21-bit lanes per uint64, lane i at bit
// laneBits·i, its flag at bit 20.
const (
	groupSize = 3
	laneBits  = 21
	laneTop   = 1 << 20 // lane values lie in (0, laneTop)
	laneMid   = 1 << 19 // a lane's value at S·Dot = 0
	laneFlags = laneTop | laneTop<<laneBits | laneTop<<(2*laneBits)
	// laneMassExp bounds a lane's scaled mass: S·Σ|θ| < 2^laneMassExp.
	laneMassExp = 17
)

// MaxStages is the widest challenge a Selector serves: the candidate
// kernel and the Word() dedup key cover at most 64 stages.
const MaxStages = 64

// sieveBlock is how many candidates Next draws and classifies at a time;
// survivor indices are bytes.
const sieveBlock = 128

// maxNextCount is the most challenges one Next call may ask for: 2²⁴, or
// less where an int is too narrow for the default search cap,
// 10,000 × count.  It keeps that cap and the room Next sets aside for its
// result within what an int and an allocation can hold.
const maxNextCount = min(1<<24, math.MaxInt/10000)

// Bounds on Σ|θ| inside which the lane scale S is a normal float.
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
	n := model.Width()
	members := make([]memberKernel, n)
	for i, m := range model.PUFs {
		if m.Stages() != k {
			panic(fmt.Sprintf("core: NewSelector: member %d has %d stages, member 0 has %d", i, m.Stages(), k))
		}
		members[i] = memberKernel{theta: m.Theta, lo: model.Beta0 * m.Thr0, hi: model.Beta1 * m.Thr1}
	}
	s := &Selector{
		src:    src,
		stages: k,
		mask:   ^uint64(0) >> uint(64-k),
		groups: make([]groupKernel, (n+groupSize-1)/groupSize),
	}
	q := (k + 31) / 32
	tabs := make([][4][256]uint64, q*len(s.groups))
	for i := range s.groups {
		g := &s.groups[i]
		g.tab = tabs[i*q : (i+1)*q : (i+1)*q]
		g.members = members[i*groupSize : min((i+1)*groupSize, n)]
		g.build()
	}
	return s
}

// build fills g's tables, start constant and threshold adds from its
// members, one lane each.
func (g *groupKernel) build() {
	k := len(g.members[0].theta) - 1
	// E, the band margin in lane units: m/2 + 1 for m tables.
	margin := float64(2*len(g.tab) + 1)
	var scale [groupSize]float64 // 0 for a lane that always takes the band
	var start [groupSize]int64
	for i := range g.members {
		mk := &g.members[i]
		shift := uint(laneBits * i)
		var mass float64
		for _, th := range mk.theta {
			mass += math.Abs(th)
		}
		// NaN and ±Inf fail every one of these comparisons.
		if !(mass >= minCertifiedMass && mass <= maxCertifiedMass &&
			math.Abs(mk.lo) <= math.MaxFloat64 && math.Abs(mk.hi) <= math.MaxFloat64) {
			// Zero entries leave the lane at laneMid: loMay always set,
			// loNot and hiSure never, so every candidate meets the band.
			start[i] = laneMid
			g.loMay |= (laneTop - 1) << shift
			g.hiMay |= (laneTop - 1) << shift
			continue
		}
		_, e := math.Frexp(mass) // mass < 2^e
		scale[i] = math.Ldexp(1, laneMassExp-e)
		start[i] = int64(laneEntry(scale[i], mk.theta[k], laneMid))
		cl := scaledCeil(scale[i], mk.lo) + laneMid
		fh := scaledFloor(scale[i], mk.hi) + laneMid
		loNot := cl + margin
		g.loMay |= laneAdd(cl-margin) << shift
		g.loNot |= laneAdd(loNot) << shift
		g.hiSure |= laneAdd(max(fh+margin+1, loNot)) << shift
		g.hiMay |= laneAdd(fh-margin+1) << shift
	}
	// Lanes without a scale (unused or always in the band) keep zero
	// nibbles and offsets, so their entries are 0.
	var lo, hi [groupSize][16]float64
	var off [groupSize]int64
	for q := range g.tab {
		for b := range g.tab[q] {
			j := 4*q + b
			for i := range g.members {
				if scale[i] == 0 {
					continue
				}
				theta := g.members[i].theta[:k]
				lo[i], hi[i] = nibble(theta, 2*j), nibble(theta, 2*j+1)
				var mass float64
				for _, th := range theta[min(8*j, k):min(8*j+8, k)] {
					mass += math.Abs(th)
				}
				off[i] = int64(math.Ceil(scale[i]*mass)) + 1
				start[i] -= off[i]
			}
			t := &g.tab[q][b]
			for v := range t {
				a, c := v&15, v>>4
				t[v] = laneEntry(scale[0], lo[0][a]+hi[0][c], off[0]) |
					laneEntry(scale[1], lo[1][a]+hi[1][c], off[1])<<laneBits |
					laneEntry(scale[2], lo[2][a]+hi[2][c], off[2])<<(2*laneBits)
			}
		}
	}
	for i, st := range start[:len(g.members)] {
		g.start |= uint64(st) << uint(laneBits*i)
	}
}

// roundMagic is 1.5·2⁵²: for |x| < 2⁵¹, x + roundMagic rounds x to the
// nearest integer, ties to even, and leaves it in the low mantissa bits.
const roundMagic = 0x1.8p52

// laneEntry returns round(s·t) + off, rounding to nearest with ties to
// even; |s·t| ≤ 2¹⁷.
func laneEntry(s, t float64, off int64) uint64 {
	return math.Float64bits(s*t+roundMagic) - math.Float64bits(roundMagic) + uint64(off)
}

// nibble returns N_g for the stage weights theta: N_g[v] is the sum of
// (−1)^{v_i}·θ_{4g+i} over i < 4 in i order, with θ 0 past len(theta).
// Each sum is built on the prefix sums it shares with its neighbours.
func nibble(theta []float64, g int) (n [16]float64) {
	var th [4]float64
	copy(th[:], theta[min(4*g, len(theta)):])
	var p [8]float64 // p[u] for u < 4 is ±θ_0 ± θ_1, then ± θ_2
	p[0], p[1], p[2], p[3] = th[0]+th[1], -th[0]+th[1], th[0]-th[1], -th[0]-th[1]
	for u := 0; u < 4; u++ {
		p[u+4] = p[u] - th[2]
		p[u] += th[2]
	}
	for u := range p {
		n[u] = p[u] + th[3]
		n[u+8] = p[u] - th[3]
	}
	return n
}

// scaledCeil returns ⌈s·x⌉ for finite x and a power of two s > 0, or ±Inf
// where the product overflows.  An underflowed product has |s·x| < 1, so
// its sign decides.
func scaledCeil(s, x float64) float64 {
	if v := s * x; v != 0 || x <= 0 {
		return math.Ceil(v)
	}
	return 1
}

// scaledFloor returns ⌊s·x⌋ like scaledCeil.
func scaledFloor(s, x float64) float64 {
	if v := s * x; v != 0 || x >= 0 {
		return math.Floor(v)
	}
	return -1
}

// laneAdd returns 2²⁰ − t for threshold t clamped into [1, 2²⁰]: added to
// a lane value d, it sets bit 20 iff d ≥ t.  t is integral or ±Inf.
func laneAdd(t float64) uint64 {
	return uint64(laneTop - max(1, min(laneTop, t)))
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

// sum returns the group's packed lane values for the challenge whose
// suffix-parity word is p.
func (g *groupKernel) sum(p uint64) uint64 {
	v := g.start
	for q := range g.tab {
		t := &g.tab[q]
		v += t[0][uint8(p)] + t[1][uint8(p>>8)] + t[2][uint8(p>>16)] + t[3][uint8(p>>24)]
		p >>= 32
	}
	return v
}

// b2u is 1 for true and 0 for false; the compiler emits a flag set, not a
// jump.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// verdict reads the group's packed lane values v: keep is 1 when every
// lane is surely stable, with bit the parity of their Stable1 flags, and
// drop is 1 when some lane is surely unstable.  Neither is the band.
func (g *groupKernel) verdict(v uint64) (keep, drop, bit uint8) {
	one := (v + g.hiSure) & laneFlags
	stable := (^(v + g.loMay) | one) & laneFlags
	unstable := (v + g.loNot) &^ (v + g.hiMay) & laneFlags
	one ^= one >> (2 * laneBits)
	one ^= one >> laneBits
	return b2u(stable == laneFlags), b2u(unstable != 0), uint8(one>>20) & 1
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

// first is the first group's pass over a whole block whose suffix-parity
// words are p: it drops every candidate some lane finds surely unstable,
// lists the rest in idx[:n], draw order, and zeroes their bit bytes.  It
// indexes the block directly and runs only the unstable test, so a
// dropped candidate costs one table walk; sift then reads the survivors
// alone.
func (g *groupKernel) first(p []uint64, idx, bit []uint8) (n int) {
	loNot, hiMay := g.loNot, g.hiMay
	if len(g.tab) > 1 {
		for j, w := range p {
			x := g.sum(w)
			idx[n], bit[j] = uint8(j), 0
			n += int(b2u((x+loNot)&^(x+hiMay)&laneFlags == 0))
		}
		return n
	}
	start, t := g.start, &g.tab[0]
	for j, w := range p {
		x := start + t[0][uint8(w)] + t[1][uint8(w>>8)] + t[2][uint8(w>>16)] + t[3][uint8(w>>24)]
		idx[n], bit[j] = uint8(j), 0
		n += int(b2u((x+loNot)&^(x+hiMay)&laneFlags == 0))
	}
	return n
}

// sift is one group's pass over the survivor list idx of a block whose
// suffix-parity words are p: it compacts idx in place to the candidates
// the group keeps or cannot decide, and XORs the kept ones' predicted bit
// into bit.  No jump depends on a candidate.  A candidate in the band
// stays in the list with bit 1 of its bit byte set, and band is 1 so that
// settle decides it.
func (g *groupKernel) sift(p []uint64, idx, bit []uint8) (n int, band uint8) {
	for _, j := range idx {
		keep, drop, one := g.verdict(g.sum(p[j]))
		b := 1 ^ keep ^ drop
		idx[n] = j
		n += int(keep | b)
		bit[j] ^= one&keep | b<<1
		band |= b
	}
	return n, band
}

// settle finishes a sift pass that met the band: it decides the flagged
// candidates member by member in linalg.Dot's order, clears their flag and
// drops those some member predicts unstable.
func (g *groupKernel) settle(p []uint64, idx, bit []uint8) int {
	n := 0
outer:
	for _, j := range idx {
		if bit[j]&2 != 0 {
			bit[j] &^= 2
			for i := range g.members {
				stable, one := g.members[i].decideExact(p[j])
				if stable == 0 {
					continue outer
				}
				bit[j] ^= one
			}
		}
		idx[n] = j
		n++
	}
	return n
}

// sieve classifies the candidates whose suffix-parity words are p, at most
// sieveBlock of them, group by group.  idx and bit need room for len(p)
// entries; sieve overwrites them.  It returns n with idx[:n] the
// candidates every member predicts stable, in draw order, and bit[idx[i]]
// their predicted XOR bits.
func (s *Selector) sieve(p []uint64, idx, bit []uint8) int {
	n := s.groups[0].first(p, idx, bit)
	for i := 0; i < len(s.groups) && n > 0; i++ {
		g := &s.groups[i]
		m, band := g.sift(p, idx[:n], bit)
		if band == 1 {
			m = g.settle(p, idx[:m], bit)
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

// Stages returns the challenge width k the selector issues.
func (s *Selector) Stages() int { return s.stages }

// Issued returns how many distinct challenges have been handed out.
func (s *Selector) Issued() int { return s.used.n }

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
	if r := s.budget - s.used.n; r > 0 {
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
	words := s.used.appendTo(make([]uint64, 0, s.used.n))
	slices.Sort(words)
	return SelectorState{Used: words, Budget: s.budget}
}

// ImportState replaces the selector's issued set and budget with st —
// typically state exported by an earlier process lifetime.
func (s *Selector) ImportState(st SelectorState) {
	s.used = wordSet{}
	s.MarkUsed(st.Used...)
	s.budget = st.Budget
	if s.budget < 0 {
		s.budget = 0
	}
}

// MarkUsed records challenge words as already issued without generating
// anything — the hook for replaying an issuance journal over an imported
// snapshot.  Marking a word twice is harmless.
func (s *Selector) MarkUsed(words ...uint64) {
	s.used.reserve(len(words))
	for _, w := range words {
		s.used.add(w)
	}
}

// Next returns the words of count fresh predicted-stable challenges, stage
// 0 in bit 0 (the Challenge.Word layout; challenge.FromWord(w, Stages())
// expands one), and their predicted XOR bits.  Challenges issued by earlier
// calls are never repeated.  maxExamined bounds the search (0 = 10,000 ×
// count); Next examines exactly maxExamined candidates unless it finds
// count first.  A count below 0 or above 2²⁴ (less with 32-bit ints) is
// an error, and a zero count examines nothing.
func (s *Selector) Next(count, maxExamined int) ([]uint64, []uint8, error) {
	if count < 0 || count > maxNextCount {
		return nil, nil, fmt.Errorf("core: Next of %d challenges, want 0..%d", count, maxNextCount)
	}
	if s.budget > 0 && s.used.n+count > s.budget {
		return nil, nil, &ErrBudgetExhausted{Budget: s.budget, Issued: s.used.n, Wanted: count}
	}
	if maxExamined <= 0 {
		maxExamined = 10000 * count
	}
	// At most min(count, maxExamined) survivors are issued, so neither
	// append nor an insert into the used set below grows anything.
	room := min(count, maxExamined)
	words := make([]uint64, 0, room)
	bits := make([]uint8, 0, room)
	s.used.reserve(room)
	var p [sieveBlock]uint64
	var idx, bit [sieveBlock]uint8
	examined := 0
	for len(words) < count && examined < maxExamined {
		b := min(sieveBlock, maxExamined-examined)
		for j := range p[:b] {
			p[j] = suffixParity(s.src.Uint64() & s.mask)
		}
		n := s.sieve(p[:b], idx[:], bit[:])
		drawn := b // candidates of this block that count as examined
		for _, j := range idx[:n] {
			// The word, back from its suffix parity.  One insert probes
			// the used set and reports a word already there.
			w := p[j] ^ p[j]>>1
			if !s.used.add(w) {
				continue
			}
			words = append(words, w)
			bits = append(bits, bit[j])
			if len(words) == count {
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
	if len(words) < count {
		return words, bits, &ErrSelectionExhausted{Wanted: count, Found: len(words), Examined: examined}
	}
	return words, bits, nil
}
