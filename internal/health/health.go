// Package health is the lifetime-reliability subsystem: it watches per-chip
// authentication outcomes for drift out of the enrolled model and classifies
// each chip as healthy, degraded, or quarantined.
//
// Why it exists.  The paper's β0/β1 threshold machinery guarantees that
// *selected* CRPs are 100 %-stable across the 0.8–1.0 V / 0–60 °C envelope —
// at enrollment time.  Permanent BTI/HCI aging (silicon.Age) then walks the
// fielded chip away from the model the server enrolled, and the zero-HD
// criterion starts failing on challenges the model still predicts stable.
// The server must never respond by loosening acceptance (a softened
// Hamming-distance threshold is exactly the side channel chosen-challenge
// and reliability-based modeling attacks feed on); it must detect the
// drift, quarantine the chip behind an explicit denial, and re-enroll it so
// zero-HD authentication holds again.  This package is the detection and
// classification half of that loop; internal/registry journals its state
// and internal/registry/fleet re-enrolls.
//
// Detectors.  Two complementary drift statistics run per chip:
//
//   - An EWMA of the session failure indicator (1 = denied).  It answers
//     "what fraction of recent sessions fail?" and drives the degraded →
//     quarantined escalation: a chip failing most of its sessions is
//     unusable regardless of why.
//   - A one-sided CUSUM over the per-session mismatch *fraction*
//     S ← max(0, S + m − k).  Selected CRPs mismatch at rate ≈ 0 for a
//     healthy chip, so even a small persistent mismatch rate — a drifting
//     chip that still occasionally passes — accumulates and crosses the
//     decision limit long before the failure-rate EWMA reacts.  CUSUM is
//     the classical minimal-detection-delay test for small persistent mean
//     shifts, which is precisely what cumulative aging looks like.
//
// Both detectors are O(1) state per chip — two floats and two counters — so
// a million-chip fleet costs megabytes, in keeping with the paper's
// delay-parameters-not-CRP-tables storage argument.
package health

import (
	"fmt"

	"xorpuf/internal/telemetry"
)

// Transition counters by destination state, captured once from the Default
// registry.  Transitions are rare (state changes, not sessions), so plain
// counters are all the plane needs to watch fleet-wide drift pressure.
var (
	transitionsHealthy     = telemetry.Default.Counter("health_transitions_healthy_total")
	transitionsDegraded    = telemetry.Default.Counter("health_transitions_degraded_total")
	transitionsQuarantined = telemetry.Default.Counter("health_transitions_quarantined_total")
)

func countTransition(to State) {
	switch to {
	case Healthy:
		transitionsHealthy.Inc()
	case Degraded:
		transitionsDegraded.Inc()
	case Quarantined:
		transitionsQuarantined.Inc()
	}
}

// State is a chip's lifetime-reliability classification.
type State uint8

const (
	// Healthy: the chip authenticates inside its enrolled model.
	Healthy State = iota
	// Degraded: drift detected; the chip still participates in
	// authentication but should be scheduled for re-enrollment.
	Degraded
	// Quarantined: drift severe enough that the verifier refuses sessions
	// with an explicit denial until the chip is re-enrolled.  Acceptance is
	// never loosened instead.
	Quarantined
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Quarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Valid reports whether s is a defined state (used when decoding persisted
// bytes).
func (s State) Valid() bool { return s <= Quarantined }

// Outcome is one authentication session's result, as fed to a tracker.
type Outcome struct {
	// Approved is the zero-HD verdict.
	Approved bool
	// Mismatches is the number of response bits that disagreed with the
	// server's prediction.
	Mismatches int
	// Challenges is the session's CRP count.
	Challenges int
}

// mismatchFraction is the CUSUM observation: mismatched bits per challenge.
func (o Outcome) mismatchFraction() float64 {
	if o.Challenges <= 0 {
		return 0
	}
	return float64(o.Mismatches) / float64(o.Challenges)
}

// Cause labels why a transition fired.
type Cause string

const (
	// CauseCUSUM: the mismatch-fraction CUSUM crossed a decision limit.
	CauseCUSUM Cause = "cusum"
	// CauseFailureRate: the session failure-rate EWMA crossed a limit.
	CauseFailureRate Cause = "failure-rate"
	// CauseRecovered: sustained clean sessions decayed the detectors back
	// under the recovery limits.
	CauseRecovered Cause = "recovered"
	// CauseForced: an operator forced the transition.
	CauseForced Cause = "forced"
	// CauseReEnrolled: the chip was re-enrolled and its detectors reset.
	CauseReEnrolled Cause = "re-enrolled"
)

// Event is a typed health-state transition.
type Event struct {
	// ChipID identifies the chip (empty for bare trackers; filled by the
	// registry).
	ChipID string
	// From and To are the states on either side of the transition.
	From, To State
	// Cause labels the detector or actor that fired it.
	Cause Cause
	// Stats is the tracker state at the moment of the transition.
	Stats TrackerState
}

func (e Event) String() string {
	return fmt.Sprintf("health: chip %q %s → %s (%s; fail-rate %.3f, cusum %.3f, %d sessions)",
		e.ChipID, e.From, e.To, e.Cause, e.Stats.FailEWMA, e.Stats.CUSUM, e.Stats.Sessions)
}

// Detector limits.  With 20+-challenge sessions a healthy chip's occasional
// single-bit upset (mismatch fraction ≈ 0.04) stays under every limit,
// while a drifted chip failing most sessions at mismatch fractions ≥ 0.1 is
// degraded within ~3 sessions of warm-up ending and quarantined a few
// sessions later.  Each quarantine limit sits above its degrade limit, and
// the recovery limit below both, so the classification has hysteresis.
const (
	// alpha is the EWMA smoothing factor over the session failure
	// indicator (higher reacts faster, noisier).
	alpha = 0.15
	// cusumSlack is the CUSUM allowance k: per-session mismatch fractions
	// below it are absorbed as noise.
	cusumSlack = 0.02
	// degradeCUSUM is the CUSUM decision limit h for healthy → degraded.
	degradeCUSUM = 0.15
	// quarantineCUSUM is the higher CUSUM limit for escalation to
	// quarantined.
	quarantineCUSUM = 0.5
	// degradeFailRate is the failure-rate EWMA limit for healthy →
	// degraded.
	degradeFailRate = 0.35
	// quarantineFailRate is the failure-rate EWMA limit for escalation to
	// quarantined.
	quarantineFailRate = 0.6
	// recoverFailRate: a degraded chip whose EWMA decays below this AND
	// whose CUSUM decays below degradeCUSUM/2 returns to healthy.
	// Quarantined chips never auto-recover — only re-enrollment or an
	// operator releases them.
	recoverFailRate = 0.05
	// minSessions is the warm-up before any detector-driven transition:
	// one unlucky first session must not classify a chip.
	minSessions = 5
)

// TrackerState is the portable persistent state of one chip's tracker —
// what the registry journals and snapshots so classification survives
// kill -9.
type TrackerState struct {
	// State is the current classification.
	State State
	// FailEWMA is the failure-rate EWMA.
	FailEWMA float64
	// CUSUM is the one-sided mismatch-fraction CUSUM statistic.
	CUSUM float64
	// Sessions and Failures are lifetime totals.
	Sessions, Failures uint64
}

// Tracker runs the drift detectors for one chip.  It is NOT safe for
// concurrent use — the registry guards it with the entry lock.
type Tracker struct {
	st TrackerState
}

// NewTracker returns a healthy tracker.
func NewTracker() *Tracker {
	return &Tracker{}
}

// State returns the current classification.
func (t *Tracker) State() State { return t.st.State }

// Snapshot returns the persistable tracker state.
func (t *Tracker) Snapshot() TrackerState { return t.st }

// Restore replaces the tracker state with st — the recovery hook for state
// journaled by an earlier process lifetime.
func (t *Tracker) Restore(st TrackerState) { t.st = st }

// Record folds one session outcome into the detectors and returns the
// transition it caused, if any.
func (t *Tracker) Record(o Outcome) (Event, bool) {
	fail := 0.0
	if !o.Approved {
		fail = 1
		t.st.Failures++
	}
	t.st.Sessions++
	t.st.FailEWMA += alpha * (fail - t.st.FailEWMA)
	t.st.CUSUM += o.mismatchFraction() - cusumSlack
	if t.st.CUSUM < 0 {
		t.st.CUSUM = 0
	}

	if t.st.Sessions < minSessions {
		return Event{}, false
	}
	switch t.st.State {
	case Healthy:
		if t.st.CUSUM >= degradeCUSUM {
			return t.transition(Degraded, CauseCUSUM), true
		}
		if t.st.FailEWMA >= degradeFailRate {
			return t.transition(Degraded, CauseFailureRate), true
		}
	case Degraded:
		if t.st.CUSUM >= quarantineCUSUM {
			return t.transition(Quarantined, CauseCUSUM), true
		}
		if t.st.FailEWMA >= quarantineFailRate {
			return t.transition(Quarantined, CauseFailureRate), true
		}
		if t.st.FailEWMA <= recoverFailRate && t.st.CUSUM <= degradeCUSUM/2 {
			return t.transition(Healthy, CauseRecovered), true
		}
	case Quarantined:
		// Sticky: no detector path out — only Reset (re-enrollment) or
		// Force (operator).  A quarantined chip should not normally be
		// fed outcomes at all, but replayed journals may do so.
	}
	return Event{}, false
}

// Force moves the tracker to state s unconditionally (operator action),
// reporting the transition if the state actually changed.
func (t *Tracker) Force(s State) (Event, bool) {
	if s == t.st.State {
		return Event{}, false
	}
	return t.transition(s, CauseForced), true
}

// Reset returns the tracker to a pristine healthy state — the re-enrollment
// hook: fresh model, fresh detectors.  The session totals reset too; they
// describe the retired model's lifetime, not the new one's.
func (t *Tracker) Reset() (Event, bool) {
	from := t.st.State
	t.st = TrackerState{}
	if from == Healthy {
		return Event{}, false
	}
	countTransition(Healthy)
	return Event{From: from, To: Healthy, Cause: CauseReEnrolled, Stats: t.st}, true
}

func (t *Tracker) transition(to State, cause Cause) Event {
	from := t.st.State
	t.st.State = to
	countTransition(to)
	return Event{From: from, To: to, Cause: cause, Stats: t.st}
}
