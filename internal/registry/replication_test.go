package registry

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"xorpuf/internal/health"
)

// replayInto pipes every record a mutation on src produces straight into
// dst via ApplyReplicated — an in-process WAL ship with no wire.
func replayInto(t *testing.T, src, dst *Registry) {
	t.Helper()
	src.AddAppendObserver(func(seq uint64, typ byte, payload []byte) {
		p := append([]byte(nil), payload...)
		if err := dst.ApplyReplicated(seq, typ, p); err != nil {
			t.Errorf("ApplyReplicated(seq %d, type %d): %v", seq, typ, err)
		}
	})
}

// canonicalState renders a registry's whole state in an order-independent
// form: entries sorted by ID as appendEntryState blobs with their arriving
// flag, then the ownership state with its maps sorted by key.  Snapshot bytes
// are not comparable because the snapshot body iterates maps.
func canonicalState(r *Registry) []string {
	r.opmu.Lock()
	defer r.opmu.Unlock()
	var out []string
	for i := range r.shards {
		for id, e := range r.shards[i].m {
			out = append(out, fmt.Sprintf("chip %s arriving=%q %x", id, e.arriving, appendEntryState(nil, e)))
		}
	}
	sort.Strings(out)
	r.ownMu.Lock()
	defer r.ownMu.Unlock()
	o := &r.own
	out = append(out, fmt.Sprintf("epoch %d fences %v departed %v", o.epoch, o.fences, o.departed))
	var owned []string
	for migID, a := range o.arrivals {
		chips := make([]string, 0, len(a.chips))
		for id := range a.chips {
			chips = append(chips, id)
		}
		sort.Strings(chips)
		owned = append(owned, fmt.Sprintf("arrival %s [%q,%q) epoch %d chips %v", migID, a.lo, a.hi, a.epoch, chips))
	}
	for migID, epoch := range o.completed {
		owned = append(owned, fmt.Sprintf("completed %s epoch %d", migID, epoch))
	}
	sort.Strings(owned)
	return append(out, owned...)
}

// recoverCopy opens a registry recovered from a copy of dir's WAL and
// snapshot.
func recoverCopy(t *testing.T, dir string, opts Options) *Registry {
	t.Helper()
	copyDir := t.TempDir()
	for _, name := range []string{walName, snapName} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(copyDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recovered, err := Open(copyDir, opts)
	if err != nil {
		t.Fatalf("recovering the live WAL: %v", err)
	}
	return recovered
}

// checkReplayMatches compares the live registry with its follower and with a
// registry recovered from a copy of the live one's WAL directory: a replay,
// through either path, must rebuild exactly the live state.
func checkReplayMatches(t *testing.T, when, dir string, live, follower *Registry) {
	t.Helper()
	recovered := recoverCopy(t, dir, Options{Seed: live.opts.Seed})
	defer recovered.Close()
	want := canonicalState(live)
	for _, replay := range []struct {
		name string
		reg  *Registry
	}{{"follower", follower}, {"recovered", recovered}} {
		if got := replay.reg.Seq(); got != live.Seq() {
			t.Errorf("%s: %s at seq %d, live at %d", when, replay.name, got, live.Seq())
		}
		got := canonicalState(replay.reg)
		for _, d := range []struct {
			what     string
			from, in []string
		}{{"missing", want, got}, {"extra", got, want}} {
			have := make(map[string]bool, len(d.in))
			for _, line := range d.in {
				have[line] = true
			}
			for _, line := range d.from {
				if !have[line] {
					t.Errorf("%s: %s %s: %.160s", when, replay.name, d.what, line)
				}
			}
		}
	}
}

// burnPayload encodes an issuance record's payload by hand.
func burnPayload(id string, words ...uint64) []byte {
	b := appendU32(appendString(nil, id), uint32(len(words)))
	for _, w := range words {
		b = appendU64(b, w)
	}
	return b
}

// TestApplyReplicatedMirrorsEveryRecordType drives all thirteen record types
// through the public paths (issuance, abuse, health, re-enrollment, a
// source-side migration and two inbound ones) and checks that a follower fed
// through ApplyReplicated and a registry recovered from the WAL both rebuild
// the live state, at a point inside an inbound migration and at the end.
func TestApplyReplicatedMirrorsEveryRecordType(t *testing.T) {
	dir := t.TempDir()
	// Never auto-compact, so the WAL holds the whole history.
	src, err := Open(dir, Options{Seed: 3, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := Open("", Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := Open("", Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	defer dst.Close()
	defer peer.Close()
	replayInto(t, src, dst)
	seen := make(map[byte]bool)
	src.AddAppendObserver(func(_ uint64, typ byte, _ []byte) { seen[typ] = true })

	model := syntheticModel(2, 16)
	if err := src.Register("chip-a", model, 100); err != nil {
		t.Fatal(err)
	}
	if err := src.Register("chip-b", model, 0); err != nil {
		t.Fatal(err)
	}
	e := src.Lookup("chip-a")
	wantWords := issueWords(t, e, 6)
	if _, _, err := e.IssueKeyCtx(context.Background(), 2, 0); err != nil {
		t.Fatal(err)
	}
	e.Verdict(false, 3)
	e.Verdict(false, 3)
	e.RecordAuth(health.Outcome{Challenges: 5, Mismatches: 1})
	if err := src.Replace("chip-a", syntheticModel(2, 16), 50); err != nil {
		t.Fatal(err)
	}
	src.Deregister("chip-b")

	// Outbound migration: fence set, cleared, set again, then the source's
	// cutover drops the range.
	if err := src.Register("x-1", model, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := src.SetRangeFence("mig-out", "x-", "y"); err != nil {
		t.Fatal(err)
	}
	if err := src.ClearRangeFence("mig-out"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.SetRangeFence("mig-out", "x-", "y"); err != nil {
		t.Fatal(err)
	}
	if err := src.CutoverSource("mig-out", 1, "x-", "y", "peer:7413"); err != nil {
		t.Fatal(err)
	}

	// Inbound migration: two snapshot chips arrive, then deltas burn,
	// register, re-enroll and deregister arriving chips.
	for _, id := range []string{"m-1", "m-2", "p-1"} {
		if err := peer.Register(id, model, 0); err != nil {
			t.Fatal(err)
		}
	}
	issueWords(t, peer.Lookup("m-1"), 3)
	snap, _, _, err := peer.RangeSnapshot("m-", "n")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := src.InstallMigrating("mig-in", "m-", "n", snap); err != nil || n != 2 {
		t.Fatalf("InstallMigrating = %d, %v; want 2 chips", n, err)
	}
	for _, d := range []struct {
		typ     byte
		payload []byte
	}{
		{recIssued, burnPayload("m-1", 0x1234, 0x5678)},
		{recRegister, registerPayload("m-3", 10, model)},
		{recReenroll, registerPayload("m-1", 40, syntheticModel(2, 16))},
		{recDeregister, appendString(nil, "m-2")},
	} {
		if _, err := src.ApplyMigrated("mig-in", d.typ, d.payload); err != nil {
			t.Fatalf("ApplyMigrated(type %d): %v", d.typ, err)
		}
	}
	// A re-enrollment delta for an in-range chip that is not arriving here
	// must be refused with nothing journaled: replayed, it would install a
	// live second owner with an empty used set.
	before := src.Seq()
	if _, err := src.ApplyMigrated("mig-in", recReenroll, registerPayload("m-9", 0, model)); err == nil {
		t.Error("re-enrollment delta for a chip not arriving here was accepted")
	}
	if got := src.Seq(); got != before {
		t.Errorf("refused delta moved seq from %d to %d", before, got)
	}
	checkReplayMatches(t, "mid-migration", dir, src, dst)

	if _, err := src.CutoverTarget("mig-in", 2); err != nil {
		t.Fatal(err)
	}
	// A second inbound migration is aborted before cutover.
	snap, _, _, err = peer.RangeSnapshot("p-", "q")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.InstallMigrating("mig-ab", "p-", "q", snap); err != nil {
		t.Fatal(err)
	}
	if err := src.AbortMigrationIn("mig-ab"); err != nil {
		t.Fatal(err)
	}

	// A third inbound migration's range holds no chip: the install
	// journals the range alone, and every replay must hold the arrival
	// that the cutover completes.
	snap, _, _, err = peer.RangeSnapshot("r-", "s")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := src.InstallMigrating("mig-empty", "r-", "s", snap); err != nil || n != 0 {
		t.Fatalf("empty InstallMigrating = %d, %v; want 0 chips", n, err)
	}
	if got, _ := src.Ownership("r-1"); got != OwnershipArriving {
		t.Fatalf("empty install: range status %v, want arriving", got)
	}
	checkReplayMatches(t, "empty install", dir, src, dst)
	recovered := recoverCopy(t, dir, Options{Seed: 3})
	if _, err := recovered.CutoverTarget("mig-empty", 3); err != nil {
		t.Errorf("recovered copy: %v", err)
	}
	recovered.Close()
	if _, err := src.CutoverTarget("mig-empty", 3); err != nil {
		t.Fatal(err)
	}

	for typ := recRegister; typ <= recMigrateRange; typ++ {
		if !seen[typ] {
			t.Errorf("record type %d never journaled", typ)
		}
	}
	checkReplayMatches(t, "end", dir, src, dst)

	de := dst.Lookup("chip-a")
	if de == nil {
		t.Fatal("chip-a missing on follower")
	}
	ds, ss := de.Status(), e.Status()
	if ds.Issued != ss.Issued || ds.Denials != ss.Denials || ds.Locked != ss.Locked {
		t.Fatalf("follower status %+v, primary %+v", ds, ss)
	}
	// The replicated re-enrollment must keep every old word burned: issue
	// from the follower copy and check for overlap.
	cs, _, err := de.Issue(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		if wantWords[c] {
			t.Fatalf("word %#x reissued by replicated entry", c)
		}
	}
}

func TestApplyReplicatedRefusesGapsAndGarbage(t *testing.T) {
	reg, err := Open("", Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	if err := reg.ApplyReplicated(2, recDeregister, appendString(nil, "x")); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gap apply: %v, want ErrSeqGap", err)
	}
	if err := reg.ApplyReplicated(1, 99, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown type: %v, want ErrCorrupt", err)
	}
	if err := reg.ApplyReplicated(1, recRegister, []byte{0xff}); err == nil {
		t.Fatal("truncated register payload applied")
	}
	if got := reg.Seq(); got != 0 {
		t.Fatalf("failed applies advanced seq to %d", got)
	}
	// A valid record at the right seq still applies afterwards.
	if err := reg.ApplyReplicated(1, recRegister, registerPayload("chip-a", 0, syntheticModel(2, 16))); err != nil {
		t.Fatal(err)
	}
	if reg.Lookup("chip-a") == nil {
		t.Fatal("valid replicated register missing")
	}
	// A re-enrollment record for a chip the store does not hold (a Replace
	// that raced a Deregister journals one) changed nothing live, so its
	// replay must not install the chip with an empty used set.
	if err := reg.ApplyReplicated(2, recReenroll, registerPayload("chip-z", 0, syntheticModel(2, 16))); err != nil {
		t.Fatal(err)
	}
	if reg.Lookup("chip-z") != nil {
		t.Fatal("re-enrollment record for an absent chip installed it")
	}
}

func TestSnapshotBytesInstallRoundTrip(t *testing.T) {
	src, err := Open("", Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := src.Register("chip-a", syntheticModel(2, 16), 20); err != nil {
		t.Fatal(err)
	}
	issued := issueWords(t, src.Lookup("chip-a"), 4)

	dir := t.TempDir()
	dst, err := Open(dir, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-existing state must be wiped by the install.
	if err := dst.Register("stale", syntheticModel(2, 16), 0); err != nil {
		t.Fatal(err)
	}
	snap, seq, err := src.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.InstallSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if dst.Lookup("stale") != nil {
		t.Fatal("stale entry survived snapshot install")
	}
	if got := dst.Seq(); got != seq {
		t.Fatalf("installed seq %d, want %d", got, seq)
	}
	// Corrupt snapshots must be rejected without touching state.
	bad := append([]byte(nil), snap...)
	bad[len(bad)/2] ^= 0x80
	if err := dst.InstallSnapshot(bad); err == nil {
		t.Fatal("corrupt snapshot installed")
	}

	// The install is durable: a kill -9 right after it recovers at the cut
	// with the burned words intact.
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	e := re.Lookup("chip-a")
	if e == nil {
		t.Fatal("chip-a lost across reopen")
	}
	if got := e.Status().Issued; got != 4 {
		t.Fatalf("recovered %d issued, want 4", got)
	}
	cs, _, err := e.Issue(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		if issued[c] {
			t.Fatalf("word %#x reissued after snapshot install + reopen", c)
		}
	}
}

func TestCommitWaiterGatesIssuance(t *testing.T) {
	reg, err := Open("", Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Register("chip-a", syntheticModel(2, 16), 0); err != nil {
		t.Fatal(err)
	}
	quorumDown := errors.New("quorum down")
	var gotSeq uint64
	reg.SetCommitWaiter(func(_ context.Context, seq uint64) error {
		gotSeq = seq
		return quorumDown
	})
	e := reg.Lookup("chip-a")
	before := e.Status().Issued
	if _, _, err := e.Issue(3, 0); !errors.Is(err, quorumDown) {
		t.Fatalf("gated Issue: %v, want the waiter's error", err)
	}
	if gotSeq != reg.Seq() {
		t.Fatalf("waiter saw seq %d, registry at %d", gotSeq, reg.Seq())
	}
	// Refused challenges stay burned; a retry draws fresh ones.
	if got := e.Status().Issued; got != before+3 {
		t.Fatalf("refused issuance burned %d, want 3", got-before)
	}
	reg.SetCommitWaiter(nil)
	if _, _, err := e.Issue(3, 0); err != nil {
		t.Fatalf("detached waiter still gating: %v", err)
	}
}

func TestAppendObserversAddAndRemove(t *testing.T) {
	reg, err := Open("", Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	var a, b []uint64
	removeA := reg.AddAppendObserver(func(seq uint64, _ byte, _ []byte) { a = append(a, seq) })
	reg.AddAppendObserver(func(seq uint64, _ byte, _ []byte) { b = append(b, seq) })
	if err := reg.Register("chip-a", syntheticModel(2, 16), 0); err != nil {
		t.Fatal(err)
	}
	removeA()
	removeA() // a second call is a no-op, not a removal of another tap
	if err := reg.Register("chip-b", syntheticModel(2, 16), 0); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a) != "[1]" || fmt.Sprint(b) != "[1 2]" {
		t.Fatalf("removed tap saw %v, remaining tap saw %v; want [1] and [1 2]", a, b)
	}

	// Taps come and go on several goroutines while they append; the
	// standing tap still sees every record, in order.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				remove := reg.AddAppendObserver(func(uint64, byte, []byte) {})
				if err := reg.Register(fmt.Sprintf("chip-%d-%d", g, i), syntheticModel(2, 16), 0); err != nil {
					t.Error(err)
				}
				remove()
			}
		}(g)
	}
	wg.Wait()
	for i, seq := range b {
		if seq != uint64(i+1) {
			t.Fatalf("standing tap saw seq %d at position %d of %d records", seq, i, len(b))
		}
	}
	if len(b) != 2+4*20 {
		t.Fatalf("standing tap saw %d records, want %d", len(b), 2+4*20)
	}
}

func TestCloseIdempotentUnderConcurrentRange(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := reg.Register(fmt.Sprintf("chip-%d", i), syntheticModel(2, 16), 0); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reg.Range(func(e *Entry) bool {
				_ = e.Status()
				_, _, _ = e.Issue(1, 0) // racing Close may refuse; must not panic
				return true
			})
			errs[g] = reg.Close()
		}(g)
	}
	wg.Wait()
	// Every Close call observes the one real shutdown and its error.
	for g, err := range errs {
		if err != errs[0] {
			t.Fatalf("Close %d returned %v, Close 0 returned %v", g, err, errs[0])
		}
	}
	if err := reg.Close(); err != errs[0] {
		t.Fatalf("late Close returned %v, want %v", err, errs[0])
	}
	// The registry reopens cleanly after the concurrent shutdown.
	re, err := Open(dir, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Len(); got != 32 {
		t.Fatalf("recovered %d chips, want 32", got)
	}
}
