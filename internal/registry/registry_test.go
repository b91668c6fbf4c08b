package registry

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"xorpuf/internal/core"
)

// syntheticModel builds a cheap deterministic chip model whose every
// challenge is predicted Stable0 (zero θ ⇒ prediction 0.0 < Thr0), so
// selection never stalls and tests never pay for real enrollment.
func syntheticModel(width, stages int) *core.ChipModel {
	m := &core.ChipModel{PUFs: make([]*core.PUFModel, width), Beta0: 1, Beta1: 1}
	for i := range m.PUFs {
		p := &core.PUFModel{Theta: make([]float64, stages+1), Thr0: 0.4, Thr1: 0.6}
		for j := range p.Theta {
			// Non-trivial but tiny coefficients keep predictions inside the
			// stable-0 band while exercising float round-tripping.
			p.Theta[j] = float64((i+1)*(j+1)) * 1e-6
		}
		m.PUFs[i] = p
	}
	return m
}

func issueWords(t *testing.T, e *Entry, n int) map[uint64]bool {
	t.Helper()
	cs, bits, err := e.Issue(n, 0)
	if err != nil {
		t.Fatalf("Issue(%d): %v", n, err)
	}
	if len(cs) != n || len(bits) != n {
		t.Fatalf("Issue(%d) returned %d challenges, %d bits", n, len(cs), len(bits))
	}
	words := make(map[uint64]bool, n)
	for _, c := range cs {
		words[c] = true
	}
	if len(words) != n {
		t.Fatalf("Issue returned duplicate challenges within one call")
	}
	return words
}

func TestModelCodecRoundTrip(t *testing.T) {
	want := syntheticModel(3, 32)
	want.Beta0, want.Beta1 = 0.87, 1.13
	rd := &reader{b: appendModel(nil, want)}
	got := rd.readModel()
	if rd.err != nil {
		t.Fatalf("readModel: %v", rd.err)
	}
	if len(rd.b) != 0 {
		t.Fatalf("%d trailing bytes after decode", len(rd.b))
	}
	if got.Width() != want.Width() || got.Stages() != want.Stages() {
		t.Fatalf("geometry %d×%d, want %d×%d", got.Width(), got.Stages(), want.Width(), want.Stages())
	}
	if got.Beta0 != want.Beta0 || got.Beta1 != want.Beta1 {
		t.Fatalf("betas (%v,%v), want (%v,%v)", got.Beta0, got.Beta1, want.Beta0, want.Beta1)
	}
	for i, p := range want.PUFs {
		q := got.PUFs[i]
		if q.Thr0 != p.Thr0 || q.Thr1 != p.Thr1 {
			t.Fatalf("PUF %d thresholds differ", i)
		}
		for j := range p.Theta {
			if q.Theta[j] != p.Theta[j] {
				t.Fatalf("PUF %d θ[%d] = %v, want %v", i, j, q.Theta[j], p.Theta[j])
			}
		}
	}
}

func TestModelCodecRejectsCorruption(t *testing.T) {
	enc := appendModel(nil, syntheticModel(2, 16))
	// Every strict prefix must fail cleanly, not panic or mis-decode.
	for n := 0; n < len(enc); n++ {
		rd := &reader{b: enc[:n]}
		if rd.readModel(); rd.err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	// Implausible geometry must be rejected before allocation.
	bad := appendU16(nil, 0xffff) // width 65535 > maxWidth
	bad = appendU16(bad, 16)
	rd := &reader{b: bad}
	if rd.readModel(); !errors.Is(rd.err, ErrCorrupt) {
		t.Fatalf("implausible width err = %v, want ErrCorrupt", rd.err)
	}
}

func TestSelectorStateCodecRoundTrip(t *testing.T) {
	want := core.SelectorState{Used: []uint64{3, 17, 0xdeadbeefcafe}, Budget: 250}
	rd := &reader{b: appendSelectorState(nil, want)}
	got := rd.readSelectorState()
	if rd.err != nil {
		t.Fatalf("readSelectorState: %v", rd.err)
	}
	if got.Budget != want.Budget || len(got.Used) != len(want.Used) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	for i := range want.Used {
		if got.Used[i] != want.Used[i] {
			t.Fatalf("word %d = %d, want %d", i, got.Used[i], want.Used[i])
		}
	}
}

func TestVolatileRegistryBasics(t *testing.T) {
	r, err := Open("", Options{Seed: 7})
	if err != nil {
		t.Fatalf("Open volatile: %v", err)
	}
	defer r.Close()

	if err := r.Register("", syntheticModel(2, 32), 0); err == nil {
		t.Fatal("empty chip ID accepted")
	}
	if err := r.Register("chip-A", nil, 0); err == nil {
		t.Fatal("nil model accepted")
	}
	if err := r.Register("chip-A", syntheticModel(2, 32), 0); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := r.Register("chip-A", syntheticModel(2, 32), 0); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate Register err = %v, want ErrDuplicate", err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	e := r.Lookup("chip-A")
	if e == nil || e.ID() != "chip-A" {
		t.Fatal("Lookup failed after Register")
	}
	if r.Lookup("chip-B") != nil {
		t.Fatal("Lookup of unregistered chip returned an entry")
	}
	first := issueWords(t, e, 8)
	second := issueWords(t, e, 8)
	for w := range second {
		if first[w] {
			t.Fatalf("challenge word %d issued twice", w)
		}
	}
	if st := e.Status(); st.Issued != 16 || st.Remaining != -1 {
		t.Fatalf("Status = %+v, want Issued 16, Remaining -1", st)
	}
	if !r.Deregister("chip-A") {
		t.Fatal("Deregister reported not-registered")
	}
	if r.Deregister("chip-A") {
		t.Fatal("second Deregister reported registered")
	}
	if r.Lookup("chip-A") != nil || r.Len() != 0 {
		t.Fatal("entry survived Deregister")
	}
}

// TestIssueAllocs pins the allocations of one 16-challenge issuance on a
// volatile registry: the words, the bits and the burn record's payload,
// which is sized once for the chip ID and every word.
func TestIssueAllocs(t *testing.T) {
	r, err := Open("", Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Register("chip-A", syntheticModel(2, 32), 0); err != nil {
		t.Fatal(err)
	}
	e := r.Lookup("chip-A")
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := e.Issue(16, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("Issue(16) makes %.1f allocations, want at most 3", allocs)
	}
}

// TestStaleEntryRefusedAfterCutover holds an Entry across a source-side
// cutover, as a caller that looked the chip up just before the handoff
// would.  The entry is gone from the store and its burns past the fence
// never reached the new owner, so issuing on it must be refused: the new
// owner draws the same selector stream and would re-issue those words.
func TestStaleEntryRefusedAfterCutover(t *testing.T) {
	r, err := Open("", Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Register("chip-A", syntheticModel(2, 32), 0); err != nil {
		t.Fatal(err)
	}
	e := r.Lookup("chip-A")
	if _, err := r.SetRangeFence("m1", "chip-A", "chip-B"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Issue(2, 0); !errors.Is(err, ErrMigrating) {
		t.Fatalf("fenced Issue err = %v, want ErrMigrating", err)
	}
	if err := r.CutoverSource("m1", 1, "chip-A", "chip-B", "new-owner:1"); err != nil {
		t.Fatal(err)
	}
	if r.Lookup("chip-A") != nil {
		t.Fatal("entry still resident after cutover")
	}
	if cs, _, err := e.Issue(2, 0); !errors.Is(err, ErrMigrating) {
		t.Fatalf("departed Issue = %d challenges, err %v; want ErrMigrating", len(cs), err)
	}
}

func TestRegistryClosedMutations(t *testing.T) {
	r, err := Open(t.TempDir(), Options{Seed: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := r.Register("chip-0", syntheticModel(2, 32), 0); err != nil {
		t.Fatalf("Register: %v", err)
	}
	e := r.Lookup("chip-0")
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := r.Register("chip-1", syntheticModel(2, 32), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Register after Close err = %v, want ErrClosed", err)
	}
	if _, _, err := e.Issue(1, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Issue after Close err = %v, want ErrClosed", err)
	}
	if r.Deregister("chip-0") {
		t.Fatal("Deregister succeeded after Close")
	}
}

// TestRecoveryAfterHardStop is the core durability contract: a registry that
// is abandoned without Close (kill -9) must recover every registration, the
// full used-challenge history, abuse-control state, and budgets from the WAL
// alone — and, reopened with the same seed (so the candidate challenge
// streams replay identically), must never reissue a previously issued
// challenge.
func TestRecoveryAfterHardStop(t *testing.T) {
	dir := t.TempDir()
	const seed = 42

	r1, err := Open(dir, Options{Seed: seed, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := r1.Register(fmt.Sprintf("chip-%d", i), syntheticModel(2, 32), 100); err != nil {
			t.Fatalf("Register chip-%d: %v", i, err)
		}
	}
	before := make(map[string]map[uint64]bool)
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("chip-%d", i)
		before[id] = issueWords(t, r1.Lookup(id), 10+i)
	}
	// Abuse state: two denials lock chip-3 at K=2; chip-4 denies once then
	// recovers with an approval.
	r1.Lookup("chip-3").Verdict(false, 2)
	if !r1.Lookup("chip-3").Verdict(false, 2) {
		t.Fatal("chip-3 not locked after 2 denials with K=2")
	}
	r1.Lookup("chip-4").Verdict(false, 2)
	r1.Lookup("chip-4").Verdict(true, 2)
	// Revocation must be durable too.
	if !r1.Deregister("chip-1") {
		t.Fatal("Deregister chip-1 failed")
	}
	// Hard stop: r1 is abandoned, never Closed, no snapshot was written.

	r2, err := Open(dir, Options{Seed: seed, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer r2.Close()
	if r2.Len() != 4 {
		t.Fatalf("recovered Len = %d, want 4", r2.Len())
	}
	if r2.Lookup("chip-1") != nil {
		t.Fatal("deregistered chip-1 resurrected by recovery")
	}
	for i := 0; i < 5; i++ {
		if i == 1 {
			continue
		}
		id := fmt.Sprintf("chip-%d", i)
		e := r2.Lookup(id)
		if e == nil {
			t.Fatalf("%s missing after recovery", id)
		}
		st := e.Status()
		if st.Issued != 10+i {
			t.Fatalf("%s Issued = %d, want %d", id, st.Issued, 10+i)
		}
		if st.Remaining != 100-(10+i) {
			t.Fatalf("%s Remaining = %d, want %d", id, st.Remaining, 100-(10+i))
		}
		switch id {
		case "chip-3":
			if !st.Locked || st.Denials != 2 {
				t.Fatalf("chip-3 status %+v, want locked with 2 denials", st)
			}
		case "chip-4":
			if st.Locked || st.Denials != 0 {
				t.Fatalf("chip-4 status %+v, want unlocked with 0 denials", st)
			}
		}
		// The adversarial replay: same seed ⇒ the selector's rng regenerates
		// the exact candidate stream that produced the pre-crash issuance.
		// Only the recovered used-set stands between us and reissue.
		after := issueWords(t, e, 10)
		for w := range after {
			if before[id][w] {
				t.Fatalf("%s reissued challenge word %d after recovery", id, w)
			}
		}
	}
	// Unlock is journaled: lift chip-3's lockout, hard-stop again, recover.
	if !r2.Lookup("chip-3").Unlock() {
		t.Fatal("Unlock chip-3 reported not-locked")
	}

	r3, err := Open(dir, Options{Seed: seed, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("second recovery Open: %v", err)
	}
	defer r3.Close()
	if st := r3.Lookup("chip-3").Status(); st.Locked || st.Denials != 0 {
		t.Fatalf("chip-3 status after unlock+recovery = %+v, want clear", st)
	}
}

// TestBudgetOutsideJournalRangeRefused checks that Register and Replace
// refuse a budget the journal's uint32 cannot carry before journaling
// anything, so no replay can restore a budget the live registry never had.
func TestBudgetOutsideJournalRangeRefused(t *testing.T) {
	dir := t.TempDir()
	r1, err := Open(dir, Options{Seed: 5, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := r1.Register("chip-b", syntheticModel(2, 32), 10); err != nil {
		t.Fatalf("Register chip-b: %v", err)
	}
	walPath := filepath.Join(dir, walName)
	before, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	maxBudget := uint64(math.MaxUint32)
	for _, budget := range []int{-1, -1 << 31, int(maxBudget + 1)} {
		if err := r1.Register("chip-a", syntheticModel(2, 32), budget); err == nil {
			t.Errorf("Register with budget %d succeeded", budget)
		}
		if err := r1.Replace("chip-b", syntheticModel(2, 32), budget); err == nil {
			t.Errorf("Replace with budget %d succeeded", budget)
		}
	}
	if r1.Lookup("chip-a") != nil {
		t.Fatal("refused chip-a is visible")
	}
	if st := r1.Lookup("chip-b").Status(); st.Remaining != 10 {
		t.Fatalf("chip-b Remaining = %d after refused Replace, want 10", st.Remaining)
	}
	after, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("refused budgets changed the WAL: %d bytes → %d", len(before), len(after))
	}
	// Hard stop, recover: no chip-a, chip-b keeps its journaled budget.
	r2, err := Open(dir, Options{Seed: 5, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer r2.Close()
	if r2.Lookup("chip-a") != nil {
		t.Fatal("recovered registry holds the refused chip-a")
	}
	if st := r2.Lookup("chip-b").Status(); st.Remaining != 10 {
		t.Fatalf("recovered chip-b Remaining = %d, want 10", st.Remaining)
	}
	if err := r2.Register("chip-c", syntheticModel(2, 32), int(maxBudget)); err != nil {
		t.Fatalf("Register with budget MaxUint32: %v", err)
	}
}

// TestRecoverySnapshotPlusTail exercises the combined path: some state lives
// only in the compacted snapshot, some only in the WAL tail written after it.
func TestRecoverySnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	const seed = 9

	r1, err := Open(dir, Options{Seed: seed, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := r1.Register("old", syntheticModel(2, 32), 50); err != nil {
		t.Fatalf("Register old: %v", err)
	}
	oldWords := issueWords(t, r1.Lookup("old"), 7)
	if err := r1.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Post-snapshot mutations land only in the fresh WAL.
	moreOld := issueWords(t, r1.Lookup("old"), 5)
	if err := r1.Register("new", syntheticModel(2, 32), 0); err != nil {
		t.Fatalf("Register new: %v", err)
	}
	newWords := issueWords(t, r1.Lookup("new"), 3)
	// Hard stop.

	r2, err := Open(dir, Options{Seed: seed, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer r2.Close()
	if r2.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r2.Len())
	}
	if st := r2.Lookup("old").Status(); st.Issued != 12 || st.Remaining != 38 {
		t.Fatalf("old status %+v, want Issued 12 Remaining 38", st)
	}
	if st := r2.Lookup("new").Status(); st.Issued != 3 || st.Remaining != -1 {
		t.Fatalf("new status %+v, want Issued 3 Remaining -1", st)
	}
	for w := range issueWords(t, r2.Lookup("old"), 10) {
		if oldWords[w] || moreOld[w] {
			t.Fatalf("old reissued word %d", w)
		}
	}
	for w := range issueWords(t, r2.Lookup("new"), 10) {
		if newWords[w] {
			t.Fatalf("new reissued word %d", w)
		}
	}
}

// TestRecoveryTruncatesTornTail simulates a crash mid-append: trailing
// garbage after the last good record must be detected, dropped, and the log
// must accept appends again.
func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	r1, err := Open(dir, Options{Seed: 3, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := r1.Register("chip-A", syntheticModel(2, 32), 0); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := r1.Register("chip-B", syntheticModel(2, 32), 0); err != nil {
		t.Fatalf("Register: %v", err)
	}
	// Hard stop, then a torn half-record at the tail.
	walPath := filepath.Join(dir, walName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	torn := appendU64(nil, 99)                        // seq
	torn = append(torn, recRegister)                  // type
	torn = appendU32(torn, 4096)                      // claims 4 KiB payload...
	torn = append(torn, []byte("only a fragment")...) // ...delivers 15 bytes
	if _, err := f.Write(torn); err != nil {
		t.Fatalf("write torn tail: %v", err)
	}
	f.Close()
	sizeWithTail, _ := os.Stat(walPath)

	r2, err := Open(dir, Options{Seed: 3, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("recovery Open over torn tail: %v", err)
	}
	if r2.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r2.Len())
	}
	sizeAfter, _ := os.Stat(walPath)
	if sizeAfter.Size() >= sizeWithTail.Size() {
		t.Fatalf("torn tail not truncated: %d → %d bytes", sizeWithTail.Size(), sizeAfter.Size())
	}
	// The log must be appendable again, on a clean record boundary.
	if err := r2.Register("chip-C", syntheticModel(2, 32), 0); err != nil {
		t.Fatalf("Register after tail truncation: %v", err)
	}
	// Hard stop again; the post-truncation append must replay.
	r3, err := Open(dir, Options{Seed: 3, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("third Open: %v", err)
	}
	defer r3.Close()
	if r3.Len() != 3 {
		t.Fatalf("Len after torn-tail + append recovery = %d, want 3", r3.Len())
	}
}

// TestRecoveryRejectsCorruptSnapshot verifies a bit-flipped snapshot fails
// loudly (refuse to serve from an untrustworthy never-reuse history) rather
// than silently losing state.
func TestRecoveryRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	r1, err := Open(dir, Options{Seed: 5, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := r1.Register("chip-A", syntheticModel(2, 32), 0); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := r1.Close(); err != nil { // Close compacts: state now in snapshot
		t.Fatalf("Close: %v", err)
	}
	snap := filepath.Join(dir, snapName)
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatalf("write corrupted snapshot: %v", err)
	}
	if _, err := Open(dir, Options{Seed: 5}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over corrupt snapshot err = %v, want ErrCorrupt", err)
	}
}

// TestConcurrentMixedOperations hammers a persistent registry with
// concurrent registration, lookup, issuance, verdicts, and status reads
// while auto-compaction fires, then verifies the survivors recover.  Run
// under -race this is the registry's concurrency contract.
func TestConcurrentMixedOperations(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{Seed: 11, Shards: 8, SnapshotEvery: 64})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	model := syntheticModel(2, 32)
	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("chip-%d-%d", w, i)
				if err := r.Register(id, model, 0); err != nil {
					t.Errorf("Register %s: %v", id, err)
					return
				}
				e := r.Lookup(id)
				if e == nil {
					t.Errorf("Lookup %s after Register: nil", id)
					return
				}
				if _, _, err := e.Issue(2, 0); err != nil {
					t.Errorf("Issue %s: %v", id, err)
					return
				}
				e.Verdict(i%3 != 0, 5)
				_ = e.Status()
				// Read someone else's entry too, to cross shards.
				if other := r.Lookup(fmt.Sprintf("chip-%d-%d", (w+1)%workers, i)); other != nil {
					_ = other.Status()
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != workers*perWorker {
		t.Fatalf("Len = %d, want %d", r.Len(), workers*perWorker)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r2, err := Open(dir, Options{Seed: 11, Shards: 8})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer r2.Close()
	if r2.Len() != workers*perWorker {
		t.Fatalf("recovered Len = %d, want %d", r2.Len(), workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			id := fmt.Sprintf("chip-%d-%d", w, i)
			e := r2.Lookup(id)
			if e == nil {
				t.Fatalf("%s lost across restart", id)
			}
			if st := e.Status(); st.Issued != 2 {
				t.Fatalf("%s Issued = %d, want 2", id, st.Issued)
			}
		}
	}
}
