package core

import (
	"reflect"
	"testing"

	"xorpuf/internal/rng"
)

// TestSelectorStateRoundTrip proves ExportState/ImportState preserve the
// never-reuse guarantee across selector lifetimes: a fresh selector hydrated
// from exported state never re-issues a challenge the old one handed out,
// even when its rng stream replays the exact same candidate sequence.
func TestSelectorStateRoundTrip(t *testing.T) {
	_, enr := enrollTestChip(t, 61, 2, testConfig())

	old := NewSelector(enr.Model, rng.New(71))
	old.SetBudget(500)
	cs, _, err := old.Next(120, 0)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	issued := map[uint64]struct{}{}
	for _, w := range cs {
		issued[w] = struct{}{}
	}

	st := old.ExportState()
	if len(st.Used) != 120 || st.Budget != 500 {
		t.Fatalf("exported state: %d used, budget %d; want 120, 500", len(st.Used), st.Budget)
	}
	for i := 1; i < len(st.Used); i++ {
		if st.Used[i-1] >= st.Used[i] {
			t.Fatalf("exported Used not strictly ascending at %d", i)
		}
	}
	// Export is deterministic: same state, identical serialization.
	if !reflect.DeepEqual(st, old.ExportState()) {
		t.Fatal("two exports of the same selector differ")
	}

	// Hydrate a new selector with the SAME rng seed — the adversarial case,
	// where the generator replays the old candidate stream verbatim.
	fresh := NewSelector(enr.Model, rng.New(71))
	fresh.ImportState(st)
	if fresh.Issued() != 120 || fresh.Budget() != 500 || fresh.Remaining() != 380 {
		t.Fatalf("hydrated selector: issued %d budget %d remaining %d",
			fresh.Issued(), fresh.Budget(), fresh.Remaining())
	}
	cs2, _, err := fresh.Next(120, 0)
	if err != nil {
		t.Fatalf("Next after import: %v", err)
	}
	for _, w := range cs2 {
		if _, dup := issued[w]; dup {
			t.Fatalf("challenge %#x reissued after state import", w)
		}
	}

	// Round trip through export again: union of both batches.
	st2 := fresh.ExportState()
	if len(st2.Used) != 240 {
		t.Fatalf("second export has %d used, want 240", len(st2.Used))
	}
}

func TestSelectorMarkUsed(t *testing.T) {
	_, enr := enrollTestChip(t, 62, 2, testConfig())
	sel := NewSelector(enr.Model, rng.New(72))
	words, _, err := sel.Next(50, 0)
	if err != nil {
		t.Fatal(err)
	}

	replay := NewSelector(enr.Model, rng.New(72))
	replay.MarkUsed(words...)
	replay.MarkUsed(words...) // idempotent
	if replay.Issued() != 50 {
		t.Fatalf("Issued = %d after MarkUsed, want 50", replay.Issued())
	}
	cs2, _, err := replay.Next(50, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]struct{}{}
	for _, w := range words {
		seen[w] = struct{}{}
	}
	for _, w := range cs2 {
		if _, dup := seen[w]; dup {
			t.Fatalf("challenge %#x reissued after MarkUsed", w)
		}
	}
}
