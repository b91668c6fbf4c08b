package core

import (
	"fmt"
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
// A Selector is not safe for concurrent use; wrap it in the caller's lock
// (netauth.Server does).
type Selector struct {
	model  *ChipModel
	src    *rng.Source
	used   map[uint64]struct{}
	budget int       // lifetime cap on issued challenges; 0 = unlimited
	phi    []float64 // scratch feature vector shared across candidates
	// examined counts every random candidate drawn by Next over the
	// selector's lifetime, accepted or not.
	examined int
}

// NewSelector creates a selector for an enrolled chip model.  src drives
// challenge generation.
func NewSelector(model *ChipModel, src *rng.Source) *Selector {
	if model == nil || model.Width() == 0 {
		panic("core: NewSelector with empty model")
	}
	return &Selector{model: model, src: src, used: make(map[uint64]struct{})}
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
	if len(s.phi) != challenge.FeatureDim(s.model.Stages()) {
		s.phi = make([]float64, challenge.FeatureDim(s.model.Stages()))
	}
	examined := 0
	for len(cs) < count && examined < maxExamined {
		c := challenge.Random(s.src, s.model.Stages())
		examined++
		// Word() keys on the first 64 stages, which covers every
		// configuration this repository fabricates; for longer
		// challenges the dedup would need a wider key.
		key := c.Word()
		if _, dup := s.used[key]; dup {
			continue
		}
		challenge.FeaturesInto(c, s.phi)
		bit, stable := s.model.PredictXORFeatures(s.phi)
		if !stable {
			continue
		}
		s.used[key] = struct{}{}
		cs = append(cs, c)
		bits = append(bits, bit)
	}
	s.examined += examined
	if len(cs) < count {
		return cs, bits, &ErrSelectionExhausted{Wanted: count, Found: len(cs), Examined: examined}
	}
	return cs, bits, nil
}
