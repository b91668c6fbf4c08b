package slo

import (
	"time"
)

// State is an alert's position in the pending → firing → resolved machine.
type State uint8

const (
	// Inactive: the condition has not held recently.
	Inactive State = iota
	// Pending: the condition holds but has not yet held for PendingFor —
	// the flap-suppression dwell before paging anyone.
	Pending
	// Firing: the condition held for the full dwell; the alert is live.
	Firing
	// Resolved: a previously firing alert whose condition has been clear
	// for ResolveAfter.  Distinct from Inactive so operators (and tests)
	// can see that it fired and recovered rather than never firing.
	Resolved
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Inactive:
		return "inactive"
	case Pending:
		return "pending"
	case Firing:
		return "firing"
	case Resolved:
		return "resolved"
	default:
		return "unknown"
	}
}

// Event is one alert transition, as delivered to OnEvent observers and the
// engine's event log.
type Event struct {
	// Name identifies the alert ("slo:auth-success-rate" or
	// "suspected-modeling-attack:chip-7").
	Name string `json:"name"`
	// Severity is the rule's severity label ("page", "ticket").
	Severity string `json:"severity,omitempty"`
	// From and To are the states on either side of the transition.
	From State `json:"-"`
	To   State `json:"-"`
	// FromState and ToState are their wire spellings.
	FromState string `json:"from"`
	ToState   string `json:"to"`
	// At is the evaluation time of the transition (the injected clock).
	At time.Time `json:"at"`
	// Value is the metric that drove the evaluation (burn rate, windowed
	// quantile, challenge velocity).
	Value float64 `json:"value"`
	// Reason is a human-readable explanation.
	Reason string `json:"reason,omitempty"`
	// ExemplarTrace is a distributed-trace ID of a concrete recent
	// observation behind the driving metric (latency rules only, and only
	// once the histogram has a traced observation): `puflab trace show <id>`
	// turns the page into one offending session's span tree.
	ExemplarTrace string `json:"exemplar_trace,omitempty"`
}

// alertMachine is the per-alert state: shared by burn-rate rules and
// anomaly conditions so every alert in the process moves through the same
// dwell semantics.
type alertMachine struct {
	state State
	// since is when the current state was entered.
	since time.Time
	// condSince is when the condition most recently became true (Pending
	// dwell); clearSince when it most recently became false (Firing dwell).
	condSince  time.Time
	clearSince time.Time
	lastValue  float64
	lastReason string
	// lastExemplar is the most recent exemplar trace ID of the rule's
	// histogram (latency rules); carried on events and the
	// /alerts status so a fired alert names a concrete trace.
	lastExemplar string
}

// step advances the machine one evaluation and reports the transition, if
// any.  pendingFor is the dwell before Pending escalates to Firing;
// resolveAfter is the clear dwell before Firing decays to Resolved.  Both
// dwells are measured on the injected clock, so a fake-clock test can walk
// the machine deterministically.
func (a *alertMachine) step(cond bool, value float64, reason string, now time.Time, pendingFor, resolveAfter time.Duration) (from, to State, changed bool) {
	from = a.state
	a.lastValue = value
	if reason != "" {
		a.lastReason = reason
	}
	switch a.state {
	case Inactive, Resolved:
		if cond {
			a.condSince = now
			a.state = Pending
			// A zero dwell fires immediately — one evaluation, one page.
			if pendingFor <= 0 {
				a.state = Firing
			}
			a.since = now
		}
	case Pending:
		switch {
		case !cond:
			// The condition flapped before the dwell elapsed: suppress.
			// A previously fired alert returns to Resolved, a fresh one
			// to Inactive, so history is not erased by a flap.
			a.state = Inactive
			a.since = now
		case now.Sub(a.condSince) >= pendingFor:
			a.state = Firing
			a.since = now
		}
	case Firing:
		if cond {
			a.clearSince = time.Time{}
			break
		}
		if a.clearSince.IsZero() {
			a.clearSince = now
		}
		if now.Sub(a.clearSince) >= resolveAfter {
			a.state = Resolved
			a.since = now
			a.clearSince = time.Time{}
		}
	}
	return from, a.state, a.state != from
}

// Status is one alert's externally visible state, served on /alerts.
type Status struct {
	Name     string    `json:"name"`
	Severity string    `json:"severity,omitempty"`
	State    string    `json:"state"`
	Since    time.Time `json:"since"`
	// Value is the most recent evaluation's driving metric.
	Value float64 `json:"value"`
	// Reason explains the most recent non-empty evaluation.
	Reason string `json:"reason,omitempty"`
	// ExemplarTrace is the trace ID of a recent observation behind the
	// driving metric, when one is known (see Event.ExemplarTrace).
	ExemplarTrace string `json:"exemplar_trace,omitempty"`
}

func (a *alertMachine) status(name, severity string) Status {
	return Status{
		Name:          name,
		Severity:      severity,
		State:         a.state.String(),
		Since:         a.since,
		Value:         a.lastValue,
		Reason:        a.lastReason,
		ExemplarTrace: a.lastExemplar,
	}
}
