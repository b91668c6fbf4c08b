package health

import "testing"

func clean() Outcome  { return Outcome{Approved: true, Mismatches: 0, Challenges: 25} }
func failed() Outcome { return Outcome{Approved: false, Mismatches: 5, Challenges: 25} }

func TestTrackerStaysHealthyOnCleanTraffic(t *testing.T) {
	tr := NewTracker(Config{})
	for i := 0; i < 1000; i++ {
		if ev, ok := tr.Record(clean()); ok {
			t.Fatalf("clean session %d caused transition %v", i, ev)
		}
	}
	if tr.State() != Healthy {
		t.Fatalf("state = %v after clean traffic", tr.State())
	}
}

func TestTrackerToleratesIsolatedUpsets(t *testing.T) {
	// One single-bit-mismatch denial every 10 sessions is the healthy-chip
	// noise floor the detectors must absorb (the whole point of selected
	// CRPs is that this is already rarer than reality).
	tr := NewTracker(Config{})
	for i := 0; i < 500; i++ {
		o := clean()
		if i%10 == 9 {
			o = Outcome{Approved: false, Mismatches: 1, Challenges: 25}
		}
		if ev, ok := tr.Record(o); ok {
			t.Fatalf("isolated upsets at session %d caused transition %v", i, ev)
		}
	}
}

func TestTrackerDegradesThenQuarantinesOnSustainedDrift(t *testing.T) {
	tr := NewTracker(Config{})
	var events []Event
	for i := 0; i < 100; i++ {
		if ev, ok := tr.Record(failed()); ok {
			events = append(events, ev)
		}
		if tr.State() == Quarantined {
			break
		}
	}
	if len(events) != 2 {
		t.Fatalf("got %d transitions, want degrade then quarantine: %v", len(events), events)
	}
	if events[0].From != Healthy || events[0].To != Degraded {
		t.Errorf("first transition %v, want healthy→degraded", events[0])
	}
	if events[1].From != Degraded || events[1].To != Quarantined {
		t.Errorf("second transition %v, want degraded→quarantined", events[1])
	}
	if tr.State() != Quarantined {
		t.Errorf("final state %v", tr.State())
	}
	// Quarantine is sticky under any further traffic, even clean.
	for i := 0; i < 200; i++ {
		if ev, ok := tr.Record(clean()); ok {
			t.Fatalf("quarantined tracker transitioned on clean traffic: %v", ev)
		}
	}
	if tr.State() != Quarantined {
		t.Errorf("quarantine not sticky: %v", tr.State())
	}
}

func TestTrackerMinSessionsWarmup(t *testing.T) {
	cfg := DefaultConfig()
	tr := NewTracker(cfg)
	for i := 0; i < cfg.MinSessions-1; i++ {
		if ev, ok := tr.Record(failed()); ok {
			t.Fatalf("transition %v during warm-up session %d", ev, i)
		}
	}
	if _, ok := tr.Record(failed()); !ok {
		t.Error("no transition at end of warm-up despite every session failing")
	}
}

func TestTrackerRecoversFromTransientDegradation(t *testing.T) {
	tr := NewTracker(Config{})
	// Drive into degraded with mild failures (single-bit mismatches), so the
	// CUSUM stays well under the quarantine limit and a recovery is possible.
	for tr.State() != Degraded {
		tr.Record(Outcome{Approved: false, Mismatches: 1, Challenges: 25})
	}
	// ...then a long run of clean sessions must bring it home.
	var recovered bool
	for i := 0; i < 500 && !recovered; i++ {
		if ev, ok := tr.Record(clean()); ok {
			if ev.From != Degraded || ev.To != Healthy || ev.Cause != CauseRecovered {
				t.Fatalf("unexpected transition %v", ev)
			}
			recovered = true
		}
	}
	if !recovered {
		t.Fatal("degraded tracker never recovered on clean traffic")
	}
}

func TestTrackerCUSUMCatchesSubFailureDrift(t *testing.T) {
	// A drifting chip that still passes most sessions: every session has a
	// mismatch fraction of 0.08 (2/25) but only some fail outright.  The
	// failure-rate EWMA alone would need many sessions; CUSUM must fire.
	tr := NewTracker(Config{})
	fired := false
	for i := 0; i < 40; i++ {
		approved := i%3 != 0 // 67% of sessions still "pass"
		ev, ok := tr.Record(Outcome{Approved: approved, Mismatches: 2, Challenges: 25})
		if ok {
			if ev.Cause != CauseCUSUM {
				t.Fatalf("expected CUSUM to fire first, got %v", ev)
			}
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("CUSUM never detected persistent sub-failure drift")
	}
}

func TestTrackerForceAndReset(t *testing.T) {
	tr := NewTracker(Config{})
	ev, ok := tr.Force(Quarantined)
	if !ok || ev.To != Quarantined || ev.Cause != CauseForced {
		t.Fatalf("Force: %v %v", ev, ok)
	}
	if _, ok := tr.Force(Quarantined); ok {
		t.Error("no-op Force reported a transition")
	}
	ev, ok = tr.Reset()
	if !ok || ev.From != Quarantined || ev.To != Healthy || ev.Cause != CauseReEnrolled {
		t.Fatalf("Reset: %v %v", ev, ok)
	}
	if st := tr.Snapshot(); st != (TrackerState{}) {
		t.Errorf("Reset left residual state %+v", st)
	}
	if _, ok := tr.Reset(); ok {
		t.Error("Reset of a pristine tracker reported a transition")
	}
}

func TestTrackerSnapshotRestoreRoundTrip(t *testing.T) {
	a := NewTracker(Config{})
	for i := 0; i < 7; i++ {
		a.Record(failed())
	}
	st := a.Snapshot()

	b := NewTracker(Config{})
	b.Restore(st)
	if b.Snapshot() != st {
		t.Fatal("restore did not reproduce snapshot")
	}
	// The restored tracker must continue exactly where the original left off.
	for i := 0; i < 50; i++ {
		evA, okA := a.Record(failed())
		evB, okB := b.Record(failed())
		if okA != okB || evA.To != evB.To || evA.Cause != evB.Cause {
			t.Fatalf("diverged at session %d: (%v,%v) vs (%v,%v)", i, evA, okA, evB, okB)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config invalid: %v", err)
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{DegradeCUSUM: 0.5, QuarantineCUSUM: 0.2},
		{DegradeFailRate: 0.7, QuarantineFailRate: 0.3},
		{RecoverFailRate: 0.5, DegradeFailRate: 0.4},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestStateStringAndValid(t *testing.T) {
	for s, want := range map[State]string{Healthy: "healthy", Degraded: "degraded", Quarantined: "quarantined"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
		if !s.Valid() {
			t.Errorf("%v not Valid()", s)
		}
	}
	if State(7).Valid() {
		t.Error("State(7) claims Valid()")
	}
}
