package slo

import (
	"fmt"
	"testing"
	"time"
)

func newDetector(cfg AnomalyConfig) (*AnomalyDetector, *fakeClock) {
	clk := newFakeClock()
	return NewAnomalyDetector(cfg, clk.Now), clk
}

// TestFarmingVelocityFires: a chip being drained of CRPs at high velocity
// fires suspected-modeling-attack regardless of verdicts.
func TestFarmingVelocityFires(t *testing.T) {
	d, clk := newDetector(AnomalyConfig{
		Window:              time.Minute,
		MaxChallengesPerMin: 500,
		MinSessions:         5,
		PendingFor:          10 * time.Second,
		ResolveAfter:        30 * time.Second,
	})

	// 20 approved sessions × 100 challenges inside one minute: 2000/min.
	for i := 0; i < 20; i++ {
		d.ObserveSession("chip-0", 100, false)
		clk.Advance(2 * time.Second)
	}
	evs := d.Evaluate(clk.Now())
	if len(evs) != 1 || evs[0].ToState != "pending" || evs[0].Name != AlertNameFor("chip-0") {
		t.Fatalf("first evaluate = %+v, want pending", evs)
	}
	// Keep farming through the dwell → firing.
	clk.Advance(10 * time.Second)
	d.ObserveSession("chip-0", 100, false)
	evs = d.Evaluate(clk.Now())
	if len(evs) != 1 || evs[0].ToState != "firing" {
		t.Fatalf("post-dwell evaluate = %+v, want firing", evs)
	}

	// Silence: the window empties, the alert clears and resolves.
	clk.Advance(2 * time.Minute)
	if evs = d.Evaluate(clk.Now()); len(evs) != 0 {
		// First clear evaluation starts the resolve dwell.
		t.Fatalf("clearing evaluate = %+v, want none yet", evs)
	}
	clk.Advance(time.Minute)
	evs = d.Evaluate(clk.Now())
	if len(evs) != 1 || evs[0].ToState != "resolved" {
		t.Fatalf("resolve evaluate = %+v, want resolved", evs)
	}
}

// TestDenialMixFires: moderate velocity with a hostile denial mix (an
// impostor probing chosen challenges) trips the cheaper signature.
func TestDenialMixFires(t *testing.T) {
	d, clk := newDetector(AnomalyConfig{
		Window:                  time.Minute,
		MaxChallengesPerMin:     10000,
		SuspectChallengesPerMin: 300,
		SuspectDenialFraction:   0.5,
		MinSessions:             5,
		PendingFor:              -1, // fire on first evaluation
	})
	for i := 0; i < 6; i++ {
		d.ObserveSession("chip-1", 100, true) // 600/min, all denied
		clk.Advance(time.Second)
	}
	evs := d.Evaluate(clk.Now())
	if len(evs) != 1 || evs[0].ToState != "firing" {
		t.Fatalf("evaluate = %+v, want immediate firing", evs)
	}
}

// TestLegitimateTrafficStaysQuiet: a genuine device authenticating at a
// normal cadence never trips either signature.
func TestLegitimateTrafficStaysQuiet(t *testing.T) {
	d, clk := newDetector(AnomalyConfig{
		Window:                  time.Minute,
		MaxChallengesPerMin:     1000,
		SuspectChallengesPerMin: 300,
		SuspectDenialFraction:   0.5,
		MinSessions:             5,
	})
	// Two sessions a minute at 100 challenges, every one approved, with
	// an occasional legitimate denial (transient mismatch).
	for i := 0; i < 30; i++ {
		d.ObserveSession("chip-2", 100, i%10 == 0)
		if evs := d.Evaluate(clk.Now()); len(evs) != 0 {
			t.Fatalf("legitimate traffic produced events: %+v", evs)
		}
		clk.Advance(30 * time.Second)
	}
}

// TestBelowMinSessionsNeverJudged: tiny windows are not judged at all —
// one big session must not page.
func TestBelowMinSessionsNeverJudged(t *testing.T) {
	d, clk := newDetector(AnomalyConfig{MinSessions: 5, MaxChallengesPerMin: 100})
	d.ObserveSession("chip-3", 100000, true)
	if evs := d.Evaluate(clk.Now()); len(evs) != 0 {
		t.Fatalf("single session judged: %+v", evs)
	}
}

// TestEvictionSparesActiveAlerts: spraying many chip IDs must not evict a
// chip whose alert is pending/firing.
func TestEvictionSparesActiveAlerts(t *testing.T) {
	d, clk := newDetector(AnomalyConfig{
		Window:              time.Minute,
		MaxChallengesPerMin: 200,
		MinSessions:         2,
		PendingFor:          -1,
		MaxChips:            8,
	})
	// chip-hot goes firing.
	for i := 0; i < 5; i++ {
		d.ObserveSession("chip-hot", 100, true)
	}
	d.Evaluate(clk.Now())
	if st := d.Alerts(); len(st) != 1 || st[0].State != "firing" {
		t.Fatalf("setup: %+v", st)
	}
	// Spray 50 other chips through the 8-chip cap.
	for i := 0; i < 50; i++ {
		d.ObserveSession(fmt.Sprintf("chip-%d", i), 1, false)
		clk.Advance(time.Millisecond)
	}
	found := false
	for _, a := range d.Alerts() {
		if a.Name == AlertNameFor("chip-hot") && a.State == "firing" {
			found = true
		}
	}
	if !found {
		t.Fatal("firing chip evicted by ID spray")
	}
	d.mu.Lock()
	tracked := len(d.chips)
	d.mu.Unlock()
	if tracked > 9 { // 8 cap + the protected firing chip can exceed by design
		t.Fatalf("%d chips tracked, want bounded", tracked)
	}
}

func TestChipIDFromAlert(t *testing.T) {
	if got := ChipIDFromAlert(AlertNameFor("chip-7")); got != "chip-7" {
		t.Fatalf("ChipIDFromAlert = %q", got)
	}
	if got := ChipIDFromAlert("slo:latency"); got != "" {
		t.Fatalf("non-anomaly name returned %q", got)
	}
}
