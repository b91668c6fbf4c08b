package registry

import (
	"context"
	"testing"
)

// TestIssueKeySharesNeverReuseBudget is the chosen-challenge invariant for
// the key-exchange workload: challenges issued for key derivation and for
// authentication draw from one budget, and neither path can ever re-issue a
// word the other burned.
func TestIssueKeySharesNeverReuseBudget(t *testing.T) {
	r, err := Open("", Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Register("chip-0", syntheticModel(2, 32), 100); err != nil {
		t.Fatal(err)
	}
	e := r.Lookup("chip-0")

	keyWords := make(map[uint64]bool)
	cs, bits, err := e.IssueKeyCtx(context.Background(), 20, 0)
	if err != nil {
		t.Fatalf("IssueKey: %v", err)
	}
	if len(cs) != 20 || len(bits) != 20 {
		t.Fatalf("IssueKey returned %d challenges, %d bits", len(cs), len(bits))
	}
	for _, c := range cs {
		keyWords[c] = true
	}
	if len(keyWords) != 20 {
		t.Fatal("IssueKey returned duplicates within one call")
	}

	// Auth issuance afterwards must avoid every key-derivation word, and a
	// second key issuance must avoid both earlier sets.
	authWords := issueWords(t, e, 30)
	for w := range authWords {
		if keyWords[w] {
			t.Fatalf("auth Issue re-issued key-derivation word %#x", w)
		}
	}
	cs2, _, err := e.IssueKeyCtx(context.Background(), 20, 0)
	if err != nil {
		t.Fatalf("second IssueKey: %v", err)
	}
	for _, c := range cs2 {
		if keyWords[c] || authWords[c] {
			t.Fatalf("IssueKey re-issued burned word %#x", c)
		}
	}

	// Budget is shared: 20 + 30 + 20 issued of 100 leaves 30.
	if st := e.Status(); st.Issued != 70 || st.Remaining != 30 {
		t.Fatalf("Status = issued %d remaining %d, want 70/30", st.Issued, st.Remaining)
	}
}

// TestIssueKeySurvivesHardStop: key-derivation burns are journaled under
// recKeyIssued and must replay across an un-Closed reopen exactly like auth
// burns — no word issued before the crash is ever issued after it.
func TestIssueKeySurvivesHardStop(t *testing.T) {
	dir := t.TempDir()
	const seed = 11

	r1, err := Open(dir, Options{Seed: seed, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Register("chip-0", syntheticModel(2, 32), 200); err != nil {
		t.Fatal(err)
	}
	burned := make(map[uint64]bool)
	cs, _, err := r1.Lookup("chip-0").IssueKeyCtx(context.Background(), 40, 0)
	if err != nil {
		t.Fatalf("IssueKey: %v", err)
	}
	for _, c := range cs {
		burned[c] = true
	}
	for w := range issueWords(t, r1.Lookup("chip-0"), 25) {
		burned[w] = true
	}
	// Hard stop: r1 abandoned without Close, WAL replay only.

	r2, err := Open(dir, Options{Seed: seed, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer r2.Close()
	e := r2.Lookup("chip-0")
	if e == nil {
		t.Fatal("chip-0 missing after recovery")
	}
	if st := e.Status(); st.Issued != 65 {
		t.Fatalf("recovered Issued = %d, want 65", st.Issued)
	}
	cs2, _, err := e.IssueKeyCtx(context.Background(), 40, 0)
	if err != nil {
		t.Fatalf("post-recovery IssueKey: %v", err)
	}
	for _, c := range cs2 {
		if burned[c] {
			t.Fatalf("word %#x re-issued after hard stop", c)
		}
	}
	for w := range issueWords(t, e, 25) {
		if burned[w] {
			t.Fatalf("auth word %#x re-issued after hard stop", w)
		}
	}
}

// TestReplicatedKeyIssueApplies: a follower receiving a recKeyIssued record
// marks the words burned exactly like recIssued, so never-reuse holds after
// failover in the key-exchange workload too.
func TestReplicatedKeyIssueApplies(t *testing.T) {
	primary, err := Open("", Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	follower, err := Open("", Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	type rec struct {
		seq     uint64
		typ     byte
		payload []byte
	}
	var stream []rec
	primary.AddAppendObserver(func(seq uint64, typ byte, payload []byte) {
		stream = append(stream, rec{seq, typ, append([]byte(nil), payload...)})
	})
	if err := primary.Register("chip-0", syntheticModel(2, 32), 100); err != nil {
		t.Fatal(err)
	}
	cs, _, err := primary.Lookup("chip-0").IssueKeyCtx(context.Background(), 15, 0)
	if err != nil {
		t.Fatalf("IssueKey: %v", err)
	}
	sawKeyRecord := false
	for _, r := range stream {
		if r.typ == recKeyIssued {
			sawKeyRecord = true
		}
		if err := follower.ApplyReplicated(r.seq, r.typ, r.payload); err != nil {
			t.Fatalf("ApplyReplicated seq %d type %d: %v", r.seq, r.typ, err)
		}
	}
	if !sawKeyRecord {
		t.Fatal("IssueKey did not journal a recKeyIssued record")
	}

	// Promote the follower: its selector must refuse every replicated word.
	burned := make(map[uint64]bool, len(cs))
	for _, c := range cs {
		burned[c] = true
	}
	cs2, _, err := follower.Lookup("chip-0").IssueKeyCtx(context.Background(), 15, 0)
	if err != nil {
		t.Fatalf("follower IssueKey: %v", err)
	}
	for _, c := range cs2 {
		if burned[c] {
			t.Fatalf("promoted follower re-issued word %#x", c)
		}
	}
	if st := follower.Lookup("chip-0").Status(); st.Issued != 30 {
		t.Fatalf("follower Issued = %d, want 30", st.Issued)
	}
}
