package registry

import (
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"xorpuf/internal/core"
	"xorpuf/internal/health"
)

func failedSession() health.Outcome {
	return health.Outcome{Approved: false, Mismatches: 5, Challenges: 25}
}

// driveToQuarantine feeds failing sessions until the chip quarantines.
func driveToQuarantine(t *testing.T, e *Entry) {
	t.Helper()
	for i := 0; i < 100; i++ {
		e.RecordAuth(failedSession())
		if e.HealthState() == health.Quarantined {
			return
		}
	}
	t.Fatalf("chip never quarantined: %+v", e.Status().HealthStats)
}

func TestTrackerStateCodecRoundTrip(t *testing.T) {
	want := health.TrackerState{
		State: health.Degraded, FailEWMA: 0.42, CUSUM: 0.17,
		Sessions: 1234, Failures: 99,
	}
	rd := &reader{b: appendTrackerState(nil, want)}
	got := rd.readTrackerState()
	if rd.err != nil {
		t.Fatalf("readTrackerState: %v", rd.err)
	}
	if len(rd.b) != 0 {
		t.Fatalf("%d trailing bytes", len(rd.b))
	}
	if got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	bad := appendTrackerState(nil, want)
	bad[0] = 9 // undefined state byte
	rd = &reader{b: bad}
	if rd.readTrackerState(); rd.err == nil {
		t.Fatal("invalid state byte decoded successfully")
	}
}

func TestHealthStateSurvivesHardStop(t *testing.T) {
	dir := t.TempDir()
	r1, err := Open(dir, Options{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Register("drifter", syntheticModel(2, 32), 0); err != nil {
		t.Fatal(err)
	}
	if err := r1.Register("steady", syntheticModel(2, 32), 0); err != nil {
		t.Fatal(err)
	}
	driveToQuarantine(t, r1.Lookup("drifter"))
	for i := 0; i < 20; i++ {
		r1.Lookup("steady").RecordAuth(health.Outcome{Approved: true, Challenges: 25})
	}
	wantStats := r1.Lookup("drifter").Status().HealthStats

	// kill -9: abandon r1 without Close, then recover from WAL alone.
	r2, err := Open(dir, Options{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Lookup("drifter").HealthState(); got != health.Quarantined {
		t.Errorf("drifter recovered as %v, want quarantined", got)
	}
	if got := r2.Lookup("drifter").Status().HealthStats; got != wantStats {
		t.Errorf("detector stats not recovered: %+v vs %+v", got, wantStats)
	}
	if got := r2.Lookup("steady").HealthState(); got != health.Healthy {
		t.Errorf("steady recovered as %v, want healthy", got)
	}
}

func TestHealthStateSurvivesSnapshot(t *testing.T) {
	dir := t.TempDir()
	r1, err := Open(dir, Options{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Register("c", syntheticModel(2, 32), 0); err != nil {
		t.Fatal(err)
	}
	driveToQuarantine(t, r1.Lookup("c"))
	if err := r1.Compact(); err != nil {
		t.Fatal(err)
	}
	// The WAL is now empty; classification must come from the XPS2 snapshot.
	r2, err := Open(dir, Options{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Lookup("c").HealthState(); got != health.Quarantined {
		t.Errorf("snapshot recovered health %v, want quarantined", got)
	}
}

func TestForceHealthJournaled(t *testing.T) {
	dir := t.TempDir()
	r1, err := Open(dir, Options{Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Register("c", syntheticModel(2, 32), 0); err != nil {
		t.Fatal(err)
	}
	ev, ok := r1.Lookup("c").ForceHealth(health.Quarantined)
	if !ok || ev.Cause != health.CauseForced || ev.ChipID != "c" {
		t.Fatalf("ForceHealth: %v %v", ev, ok)
	}
	if _, ok := r1.Lookup("c").ForceHealth(health.Quarantined); ok {
		t.Error("no-op force reported a transition")
	}
	r2, err := Open(dir, Options{Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Lookup("c").HealthState(); got != health.Quarantined {
		t.Errorf("forced quarantine not durable: %v", got)
	}
}

func TestReplaceSwapsModelAndBurnsHistory(t *testing.T) {
	dir := t.TempDir()
	r1, err := Open(dir, Options{Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	oldModel := syntheticModel(2, 32)
	if err := r1.Register("c", oldModel, 0); err != nil {
		t.Fatal(err)
	}
	e := r1.Lookup("c")
	oldWords := issueWords(t, e, 64)
	driveToQuarantine(t, e)

	newModel := syntheticModel(2, 32)
	newModel.Beta0 = 0.91 // distinguishable from the old model
	if err := r1.Replace("c", newModel, 0); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	st := e.Status()
	if st.Health != health.Healthy || st.Denials != 0 || st.Locked {
		t.Errorf("post-replace status %+v, want clean healthy", st)
	}
	if e.Model().Beta0 != 0.91 {
		t.Error("replace did not swap the model")
	}
	// The retired model's challenges stay burned: the new selector must
	// never reissue any of them.
	if st.Issued < len(oldWords) {
		t.Errorf("issued count %d lost the burned history (%d old words)", st.Issued, len(oldWords))
	}
	for w := range issueWords(t, e, 64) {
		if oldWords[w] {
			t.Fatalf("replace reissued burned challenge %#x", w)
		}
	}

	// The whole swap — model, detectors, burned history — survives kill -9.
	r2, err := Open(dir, Options{Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	e2 := r2.Lookup("c")
	if e2.Model().Beta0 != 0.91 {
		t.Error("recovered registry lost the replacement model")
	}
	if got := e2.HealthState(); got != health.Healthy {
		t.Errorf("recovered health %v, want healthy", got)
	}
	for w := range issueWords(t, e2, 64) {
		if oldWords[w] {
			t.Fatalf("recovered registry reissued burned challenge %#x", w)
		}
	}
}

func TestReplaceErrors(t *testing.T) {
	r, err := Open("", Options{Seed: 46})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Replace("ghost", syntheticModel(1, 32), 0); err == nil {
		t.Error("Replace of unregistered chip succeeded")
	}
	if err := r.Register("c", syntheticModel(1, 32), 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Replace("c", nil, 0); err == nil {
		t.Error("Replace with nil model succeeded")
	}
}

// TestModelGeometryBeyondSelector checks that Register and Replace refuse
// models the selector cannot serve (more than 64 stages, or members of
// differing length) with the geometry error instead of panicking, and
// leave the registry unchanged.
func TestModelGeometryBeyondSelector(t *testing.T) {
	r, err := Open("", Options{Seed: 48})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mixed := syntheticModel(2, 32)
	mixed.PUFs[1] = syntheticModel(1, 31).PUFs[0]
	for name, m := range map[string]*core.ChipModel{"65 stages": syntheticModel(2, 65), "mixed lengths": mixed} {
		if err := r.Register("wide", m, 0); err == nil || !strings.Contains(err.Error(), "unsupported model geometry") {
			t.Errorf("Register(%s) err = %v, want unsupported model geometry", name, err)
		}
	}
	if r.Lookup("wide") != nil {
		t.Fatal("rejected model was registered")
	}
	if err := r.Register("c", syntheticModel(2, 64), 0); err != nil {
		t.Fatalf("Register(64 stages): %v", err)
	}
	if err := r.Replace("c", syntheticModel(2, 65), 0); err == nil || !strings.Contains(err.Error(), "unsupported model geometry") {
		t.Errorf("Replace(65 stages) err = %v, want unsupported model geometry", err)
	}
	if got := r.Lookup("c").Model().Stages(); got != 64 {
		t.Errorf("after rejected Replace the model has %d stages, want 64", got)
	}
}

func TestRangeVisitsAllChips(t *testing.T) {
	r, err := Open("", Options{Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, id := range []string{"a", "b", "c", "d"} {
		if err := r.Register(id, syntheticModel(1, 32), 0); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	r.Range(func(e *Entry) bool {
		seen[e.ID()] = true
		return true
	})
	if len(seen) != 4 {
		t.Errorf("Range visited %d chips, want 4: %v", len(seen), seen)
	}
	n := 0
	r.Range(func(e *Entry) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("Range ignored early stop: %d visits", n)
	}
}

// TestSnapshotV1Compat hand-writes a pre-health "XPS1" snapshot and verifies
// the registry still loads it, defaulting every chip to pristine healthy
// detectors.
func TestSnapshotV1Compat(t *testing.T) {
	dir := t.TempDir()
	model := syntheticModel(2, 32)

	// Build a v1 body: seq, count, then id/selector/model/denials/locked
	// with no tracker state.
	body := appendU64(nil, 9)
	body = appendU32(body, 1)
	body = appendString(body, "legacy")
	body = appendSelectorState(body, core.SelectorState{Used: []uint64{5, 6, 7}, Budget: 100})
	body = appendModel(body, model)
	body = appendU32(body, 2) // denials
	body = append(body, 1)    // locked
	buf := append([]byte{}, snapMagicV1[:]...)
	buf = append(buf, body...)
	buf = appendU32(buf, crc32.ChecksumIEEE(body))
	if err := os.WriteFile(dir+"/"+snapName, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{Seed: 48})
	if err != nil {
		t.Fatalf("v1 snapshot rejected: %v", err)
	}
	defer r.Close()
	e := r.Lookup("legacy")
	if e == nil {
		t.Fatal("legacy chip not recovered")
	}
	st := e.Status()
	if st.Health != health.Healthy || st.HealthStats != (health.TrackerState{}) {
		t.Errorf("legacy chip health %+v, want pristine healthy", st.HealthStats)
	}
	if st.Issued != 3 || st.Denials != 2 || !st.Locked {
		t.Errorf("legacy accounting %+v, want 3 issued, 2 denials, locked", st)
	}
	// And the next compaction upgrades the snapshot to XPS2 in place.
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/" + snapName)
	if err != nil {
		t.Fatal(err)
	}
	if [4]byte(data[:4]) != snapMagic {
		t.Errorf("compaction kept magic %q, want upgrade to %q", data[:4], snapMagic)
	}
}
