package core

import (
	"testing"

	"xorpuf/internal/challenge"
	"xorpuf/internal/rng"
)

// propModel is a synthetic model whose predictions are cheap and mostly
// stable, so the property sweep spends its time in Selector bookkeeping, not
// enrollment.
func propModel(seed uint64, stages int) *ChipModel {
	src := rng.New(seed)
	theta := make([]float64, stages+1)
	for i := range theta {
		theta[i] = src.Float64()*0.5 - 0.25
	}
	theta[stages] = 0.5
	return &ChipModel{
		Beta0: 1, Beta1: 1,
		PUFs: []*PUFModel{{Theta: theta, Thr0: 0.45, Thr1: 0.55}},
	}
}

// TestSelectorNeverReuseProperty is the randomized statement of the Fig 7
// never-reuse rule: across 1,000 random seeds, arbitrary batch sizes, and
// interleaved Export/Import cycles (simulated process restarts, which reset
// the rng stream but carry the used set), a selector never issues the same
// challenge twice and a budgeted selector's Remaining never increases.
func TestSelectorNeverReuseProperty(t *testing.T) {
	const iterations = 1000
	for iter := 0; iter < iterations; iter++ {
		seed := uint64(iter + 1)
		drive := rng.New(seed).Split("drive")
		model := propModel(seed, 24)
		budget := 0
		if drive.Float64() < 0.5 {
			budget = 20 + int(drive.Float64()*80)
		}
		sel := NewSelector(model, rng.New(seed))
		sel.SetBudget(budget)

		everIssued := make(map[uint64]struct{})
		lastRemaining := sel.Remaining()
		rounds := 2 + int(drive.Float64()*6)
		for round := 0; round < rounds; round++ {
			if drive.Float64() < 0.3 {
				// Simulated restart: export, build a fresh selector with the
				// SAME rng seed (so it regenerates old candidates), import.
				// Only the used set may keep the never-reuse guarantee.
				st := sel.ExportState()
				sel = NewSelector(model, rng.New(seed))
				sel.ImportState(st)
				if got := sel.Remaining(); got != lastRemaining {
					t.Fatalf("iter %d round %d: Remaining changed across export/import: %d → %d",
						iter, round, lastRemaining, got)
				}
			}
			count := 1 + int(drive.Float64()*8)
			cs, bits, err := sel.Next(count, 0)
			if err != nil {
				if _, ok := err.(*ErrBudgetExhausted); ok && budget > 0 {
					if sel.Issued()+count <= budget {
						t.Fatalf("iter %d: budget refusal with %d issued of %d, wanted %d",
							iter, sel.Issued(), budget, count)
					}
					continue
				}
				t.Fatalf("iter %d round %d: Next: %v", iter, round, err)
			}
			if len(cs) != count || len(bits) != count {
				t.Fatalf("iter %d: Next returned %d challenges, %d bits, want %d",
					iter, len(cs), len(bits), count)
			}
			for _, key := range cs {
				if _, dup := everIssued[key]; dup {
					t.Fatalf("iter %d round %d: challenge %x issued twice", iter, round, key)
				}
				everIssued[key] = struct{}{}
				bit, stable := model.PredictXOR(challenge.FromWord(key, model.Stages()))
				if !stable {
					t.Fatalf("iter %d: issued unstable challenge %x", iter, key)
				}
				_ = bit
			}
			rem := sel.Remaining()
			if budget == 0 {
				if rem != -1 {
					t.Fatalf("iter %d: unbudgeted Remaining = %d, want -1", iter, rem)
				}
			} else {
				if rem > lastRemaining {
					t.Fatalf("iter %d round %d: Remaining increased %d → %d",
						iter, round, lastRemaining, rem)
				}
				if want := budget - sel.Issued(); rem != max(want, 0) {
					t.Fatalf("iter %d: Remaining = %d, want %d (budget %d, issued %d)",
						iter, rem, max(want, 0), budget, sel.Issued())
				}
			}
			lastRemaining = rem
			if sel.Issued() != len(everIssued) {
				t.Fatalf("iter %d: Issued() = %d, distinct issued = %d",
					iter, sel.Issued(), len(everIssued))
			}
		}
	}
}
