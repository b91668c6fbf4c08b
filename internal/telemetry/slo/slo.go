// Package slo evaluates declarative service-level objectives against the
// time-series history and runs every alert in the process — burn-rate SLO
// alerts and attack-pattern anomaly alerts — through one pending → firing →
// resolved state machine.
//
// Objectives come in two kinds:
//
//   - Ratio: a bad-event fraction against an error budget.  The budget is
//     1 − Target; the burn rate is badFraction / budget, so burn 1.0 means
//     "spending budget exactly as fast as the SLO allows" and burn 14
//     means "the whole month's budget gone in ~2 hours".
//   - Latency: a windowed quantile of a histogram against a threshold; the
//     burn rate is quantile / threshold.
//   - Gauge: a windowed quantile of a sampled gauge level against a limit;
//     the burn rate is quantile / limit.  This covers objectives over
//     levels rather than events — "replication lag p99 stays under N
//     records" is a statement about a gauge's trajectory, not a counter's.
//
// Rules are multi-window: the condition requires the burn rate to exceed
// the rule's threshold over BOTH a long and a short trailing window.  The
// long window keeps one transient spike from paging; the short window makes
// the alert resolve promptly once the bleeding stops (a long window alone
// would stay red for its whole width).  This is the classic SRE-workbook
// construction, scaled down to the windows a test (or a demo fleet) wants.
//
// Everything is clocked by the history.Sampler's injected Now, so unit
// tests drive the full pending → firing → resolved lifecycle with a fake
// clock and zero sleeps.
package slo

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"xorpuf/internal/telemetry"
	"xorpuf/internal/telemetry/history"
)

// Kind distinguishes objective arithmetic.
type Kind string

const (
	// KindRatio: bad-event fraction vs an error budget.
	KindRatio Kind = "ratio"
	// KindLatency: windowed histogram quantile vs a threshold.
	KindLatency Kind = "latency"
	// KindGauge: windowed gauge-level quantile vs a limit.
	KindGauge Kind = "gauge"
)

// Objective declares one SLO.
type Objective struct {
	// Name identifies the objective ("auth-success-rate").
	Name string `json:"name"`
	Kind Kind   `json:"kind"`

	// Ratio objectives: either Good/Total (success counters) or Bad/Total
	// (failure counters).  Exactly one of Good or Bad is set.  The bad
	// fraction is 1 − good/total, or bad/total.
	Good  string `json:"good,omitempty"`
	Bad   string `json:"bad,omitempty"`
	Total string `json:"total,omitempty"`
	// Target is the objective on the good fraction (0.999 = "99.9 % of
	// sessions complete"); the error budget is 1 − Target.
	Target float64 `json:"target,omitempty"`

	// Latency objectives: Quantile of Histogram must stay at or below
	// Threshold seconds.
	Histogram string  `json:"histogram,omitempty"`
	Quantile  float64 `json:"quantile,omitempty"`
	Threshold float64 `json:"threshold_seconds,omitempty"`

	// Gauge objectives: Quantile of the sampled Gauge level must stay at
	// or below Limit (in the gauge's own unit).
	Gauge string  `json:"gauge,omitempty"`
	Limit float64 `json:"limit,omitempty"`
}

// Rule binds an objective to its burn-rate windows and alert dwells.
type Rule struct {
	Objective Objective `json:"objective"`
	// LongWindow and ShortWindow are the two trailing windows whose burn
	// rates must BOTH exceed Burn for the condition to hold.
	LongWindow  time.Duration `json:"long_window"`
	ShortWindow time.Duration `json:"short_window"`
	// Burn is the burn-rate threshold (ratio kind: multiples of budget
	// spend; latency kind: multiples of the threshold, so 1.0 = "p99 over
	// the limit").
	Burn float64 `json:"burn"`
	// PendingFor is how long the condition must hold before Firing;
	// ResolveAfter how long it must stay clear before Resolved.
	PendingFor   time.Duration `json:"pending_for"`
	ResolveAfter time.Duration `json:"resolve_after"`
	// Severity labels the page ("page", "ticket").
	Severity string `json:"severity"`
}

// AlertName is the rule's entry in the alert set.
func (r Rule) AlertName() string { return "slo:" + r.Objective.Name }

// ObjectiveStatus is one objective's evaluation, served on /slo.
type ObjectiveStatus struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	// GoodFraction is the long-window good fraction (ratio kind).
	GoodFraction float64 `json:"good_fraction,omitempty"`
	// QuantileSeconds is the long-window quantile (latency kind).
	QuantileSeconds float64 `json:"quantile_seconds,omitempty"`
	// GaugeValue is the long-window gauge quantile (gauge kind).
	GaugeValue float64 `json:"gauge_value,omitempty"`
	// LongBurn and ShortBurn are the two windows' burn rates.
	LongBurn  float64 `json:"long_burn"`
	ShortBurn float64 `json:"short_burn"`
	// BudgetRemaining is 1 − badFraction/budget over the long window
	// (ratio kind), clamped at 0: how much of the window's error budget is
	// left.
	BudgetRemaining float64 `json:"budget_remaining,omitempty"`
	// HasData reports whether both windows held enough samples to judge.
	HasData bool `json:"has_data"`
	// State is the bound alert's current state.
	State string `json:"state"`
}

// Evaluator is an external alert source stepped by the engine on every
// Evaluate — the anomaly detector implements it.  Implementations must be
// safe for concurrent use with their own feeding paths.
type Evaluator interface {
	// Evaluate advances the source's alerts to now and returns any
	// transitions.
	Evaluate(now time.Time) []Event
	// Alerts snapshots the source's alert states.
	Alerts() []Status
}

// Engine owns the burn-rate rules and the merged alert surface.
type Engine struct {
	hist *history.Sampler

	mu       sync.Mutex
	rules    []Rule
	alerts   map[string]*alertMachine
	last     map[string]ObjectiveStatus
	external []Evaluator
	events   []Event
	onEvent  func(Event)
}

// maxEventLog bounds the retained transition history.
const maxEventLog = 256

// NewEngine builds an engine over the sampler's history and clock.
func NewEngine(hist *history.Sampler, rules []Rule) *Engine {
	e := &Engine{
		hist:   hist,
		alerts: make(map[string]*alertMachine),
		last:   make(map[string]ObjectiveStatus),
	}
	for _, r := range rules {
		e.AddRule(r)
	}
	return e
}

// AddRule registers one burn-rate rule.
func (e *Engine) AddRule(r Rule) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rules = append(e.rules, r)
	e.alerts[r.AlertName()] = &alertMachine{}
}

// Attach registers an external alert source (the anomaly detector).
func (e *Engine) Attach(ev Evaluator) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.external = append(e.external, ev)
}

// OnEvent registers fn to observe every alert transition.  fn runs on the
// evaluating goroutine with no engine lock held; keep it fast or hand off.
func (e *Engine) OnEvent(fn func(Event)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onEvent = fn
}

// burnRatio evaluates a ratio objective over one window.
func (e *Engine) burnRatio(o Objective, window time.Duration) (burn, goodFrac, badFrac float64, ok bool) {
	total, ok := e.hist.CounterDelta(o.Total, window)
	if !ok || total <= 0 {
		return 0, 0, 0, false
	}
	var bad float64
	if o.Bad != "" {
		b, okB := e.hist.CounterDelta(o.Bad, window)
		if !okB {
			// The bad counter may simply not have been registered yet (no
			// bad events ever): treat as zero rather than no-data.
			b = 0
		}
		bad = b
	} else {
		good, okG := e.hist.CounterDelta(o.Good, window)
		if !okG {
			return 0, 0, 0, false
		}
		bad = total - good
	}
	if bad < 0 {
		bad = 0
	}
	if bad > total {
		bad = total
	}
	badFrac = bad / total
	budget := 1 - o.Target
	if budget <= 0 {
		budget = 1e-9 // a 100% target burns infinitely fast on any failure
	}
	return badFrac / budget, 1 - badFrac, badFrac, true
}

// burnLatency evaluates a latency objective over one window.
func (e *Engine) burnLatency(o Objective, window time.Duration) (burn, quantile float64, ok bool) {
	q, ok := e.hist.HistQuantile(o.Histogram, window, o.Quantile)
	if !ok {
		return 0, 0, false
	}
	thr := o.Threshold
	if thr <= 0 {
		return 0, q, false
	}
	return q / thr, q, true
}

// burnGauge evaluates a gauge objective over one window.  A gauge that has
// never been sampled (this deployment does not replicate, say) reports
// no-data, which keeps the bound alert inactive rather than green-washing
// or paging on absence.
func (e *Engine) burnGauge(o Objective, window time.Duration) (burn, quantile float64, ok bool) {
	q, ok := e.hist.GaugeQuantile(o.Gauge, window, o.Quantile)
	if !ok {
		return 0, 0, false
	}
	if o.Limit <= 0 {
		return 0, q, false
	}
	return q / o.Limit, q, true
}

// Evaluate advances every rule and attached evaluator to the sampler's
// current time and returns the transitions that fired.  Call it after each
// sampler Tick.
func (e *Engine) Evaluate() []Event {
	now := e.hist.Now()

	e.mu.Lock()
	rules := make([]Rule, len(e.rules))
	copy(rules, e.rules)
	external := make([]Evaluator, len(e.external))
	copy(external, e.external)
	e.mu.Unlock()

	var out []Event
	for _, r := range rules {
		st := ObjectiveStatus{Name: r.Objective.Name, Kind: r.Objective.Kind}
		var (
			longBurn, shortBurn float64
			okLong, okShort     bool
			value               float64
			reason              string
			exTrace             string
		)
		switch r.Objective.Kind {
		case KindLatency:
			var qLong float64
			longBurn, qLong, okLong = e.burnLatency(r.Objective, r.LongWindow)
			shortBurn, _, okShort = e.burnLatency(r.Objective, r.ShortWindow)
			st.QuantileSeconds = qLong
			value = longBurn
			reason = fmt.Sprintf("%s p%g = %.4gs over %v (threshold %.4gs)",
				r.Objective.Histogram, r.Objective.Quantile*100, qLong, r.LongWindow, r.Objective.Threshold)
			// The alert names a concrete offending session: the trace of
			// the histogram's most recent traced observation.
			if h := e.hist.Registry().FindHistogram(r.Objective.Histogram); h != nil {
				exTrace, _ = h.Exemplar()
			}
		case KindGauge:
			var qLong float64
			longBurn, qLong, okLong = e.burnGauge(r.Objective, r.LongWindow)
			shortBurn, _, okShort = e.burnGauge(r.Objective, r.ShortWindow)
			st.GaugeValue = qLong
			value = longBurn
			reason = fmt.Sprintf("%s p%g = %.4g over %v (limit %.4g)",
				r.Objective.Gauge, r.Objective.Quantile*100, qLong, r.LongWindow, r.Objective.Limit)
		default:
			var goodFrac, badFrac float64
			longBurn, goodFrac, badFrac, okLong = e.burnRatio(r.Objective, r.LongWindow)
			shortBurn, _, _, okShort = e.burnRatio(r.Objective, r.ShortWindow)
			st.GoodFraction = goodFrac
			budget := 1 - r.Objective.Target
			if budget > 0 {
				st.BudgetRemaining = 1 - badFrac/budget
				if st.BudgetRemaining < 0 {
					st.BudgetRemaining = 0
				}
			}
			value = longBurn
			reason = fmt.Sprintf("bad fraction %.4g over %v burns budget at %.3gx (target %.4g)",
				badFrac, r.LongWindow, longBurn, r.Objective.Target)
		}
		st.LongBurn, st.ShortBurn = longBurn, shortBurn
		st.HasData = okLong && okShort
		cond := st.HasData && longBurn >= r.Burn && shortBurn >= r.Burn

		e.mu.Lock()
		m := e.alerts[r.AlertName()]
		from, to, changed := m.step(cond, value, reason, now, r.PendingFor, r.ResolveAfter)
		if exTrace != "" {
			m.lastExemplar = exTrace
		}
		exNow := m.lastExemplar
		st.State = to.String()
		e.last[r.Objective.Name] = st
		e.mu.Unlock()
		if changed {
			out = append(out, Event{
				Name: r.AlertName(), Severity: r.Severity,
				From: from, To: to, FromState: from.String(), ToState: to.String(),
				At: now, Value: value, Reason: reason, ExemplarTrace: exNow,
			})
		}
	}
	for _, ev := range external {
		out = append(out, ev.Evaluate(now)...)
	}

	if len(out) > 0 {
		e.mu.Lock()
		e.events = append(e.events, out...)
		if n := len(e.events); n > maxEventLog {
			e.events = append(e.events[:0], e.events[n-maxEventLog:]...)
		}
		fn := e.onEvent
		e.mu.Unlock()
		if fn != nil {
			for _, ev := range out {
				fn(ev)
			}
		}
	}
	return out
}

// Status returns every objective's latest evaluation, sorted by name.
func (e *Engine) Status() []ObjectiveStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ObjectiveStatus, 0, len(e.last))
	for _, st := range e.last {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Alerts returns every alert's state — burn-rate rules and attached
// evaluators — sorted by name.
func (e *Engine) Alerts() []Status {
	e.mu.Lock()
	rules := make([]Rule, len(e.rules))
	copy(rules, e.rules)
	out := make([]Status, 0, len(rules))
	for _, r := range rules {
		out = append(out, e.alerts[r.AlertName()].status(r.AlertName(), r.Severity))
	}
	external := make([]Evaluator, len(e.external))
	copy(external, e.external)
	e.mu.Unlock()
	for _, ev := range external {
		out = append(out, ev.Alerts()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Firing returns the subset of Alerts currently firing.
func (e *Engine) Firing() []Status {
	var out []Status
	for _, a := range e.Alerts() {
		if a.State == Firing.String() {
			out = append(out, a)
		}
	}
	return out
}

// Events returns up to n recent transitions, oldest first (n <= 0 returns
// everything retained).
func (e *Engine) Events(n int) []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	evs := e.events
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	out := make([]Event, len(evs))
	copy(out, evs)
	return out
}

// FinalState is the shutdown flush written beside metrics_final.json.
type FinalState struct {
	At         time.Time         `json:"at"`
	Objectives []ObjectiveStatus `json:"objectives"`
	Alerts     []Status          `json:"alerts"`
	Events     []Event           `json:"events"`
}

// Final captures the engine's closing state for the post-mortem file.
func (e *Engine) Final() FinalState {
	return FinalState{
		At:         e.hist.Now(),
		Objectives: e.Status(),
		Alerts:     e.Alerts(),
		Events:     e.Events(0),
	}
}

// SLOHandler serves /slo: the objective statuses as application/json.
func (e *Engine) SLOHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		telemetry.WriteJSON(w, e.Status())
	})
}

// alertsPayload is the /alerts body.
type alertsPayload struct {
	Alerts []Status `json:"alerts"`
	Events []Event  `json:"events"`
}

// AlertsHandler serves /alerts: alert states plus recent transitions as
// application/json.  ?events=N caps the transition history (default 32).
func (e *Engine) AlertsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 32
		if q := r.URL.Query().Get("events"); q != "" {
			if v, err := strconv.Atoi(q); err == nil && v >= 0 {
				n = v
			}
		}
		payload := alertsPayload{Alerts: e.Alerts(), Events: e.Events(n)}
		if payload.Alerts == nil {
			payload.Alerts = []Status{}
		}
		if payload.Events == nil {
			payload.Events = []Event{}
		}
		telemetry.WriteJSON(w, payload)
	})
}

// DefaultRules is the shipped objective catalog, evaluated by `puflab
// serve` and rendered by `puflab slo` / `puflab top`:
//
//	auth-success-rate   99% of accepted sessions reach a verdict
//	                    (failures are wire/protocol errors, not impostor
//	                    denials — denying an impostor is the SLO being met)
//	session-latency-p99 p99 of netauth_session_seconds ≤ 250 ms
//	wal-fsync-p99       p99 of registry_wal_fsync_seconds ≤ 50 ms
//	quarantine-rate     ≤ 1% of completed sessions quarantine a chip
//	replication-lag-p99 p99 of repl_lag_records ≤ 512 records behind
//	                    (inactive on deployments that never replicate —
//	                    the gauge is only sampled once a follower runs)
//	keyex-success-rate  99% of admitted key exchanges establish a key
//	                    (inactive until a key exchange runs; rejected key
//	                    confirmations are the adversary being stopped, but
//	                    a fleet of genuine devices failing to reproduce
//	                    keys is an ECC-margin regression worth paging on)
//	rebalance-fence-p99 p99 of rebalance_fence_seconds ≤ 500 ms — the
//	                    fence is the only window in a live migration when
//	                    a chip's issuance pauses, so a slow fence IS the
//	                    downtime a "zero-downtime" migration promised away
//	                    (inactive until a migration runs)
//
// Windows are minutes, not the SRE workbook's hours, because the demo
// fleets this repo runs live for minutes; the arithmetic is identical.
func DefaultRules() []Rule {
	return []Rule{
		{
			Objective: Objective{
				Name: "auth-success-rate", Kind: KindRatio,
				Good:   "netauth_sessions_completed_total",
				Total:  "netauth_sessions_started_total",
				Target: 0.99,
			},
			LongWindow: 5 * time.Minute, ShortWindow: time.Minute,
			Burn: 2, PendingFor: 10 * time.Second, ResolveAfter: 30 * time.Second,
			Severity: "page",
		},
		{
			Objective: Objective{
				Name: "session-latency-p99", Kind: KindLatency,
				Histogram: "netauth_session_seconds", Quantile: 0.99, Threshold: 0.25,
			},
			LongWindow: 5 * time.Minute, ShortWindow: time.Minute,
			Burn: 1, PendingFor: 10 * time.Second, ResolveAfter: 30 * time.Second,
			Severity: "page",
		},
		{
			Objective: Objective{
				Name: "wal-fsync-p99", Kind: KindLatency,
				Histogram: "registry_wal_fsync_seconds", Quantile: 0.99, Threshold: 0.05,
			},
			LongWindow: 5 * time.Minute, ShortWindow: time.Minute,
			Burn: 1, PendingFor: 20 * time.Second, ResolveAfter: time.Minute,
			Severity: "ticket",
		},
		{
			Objective: Objective{
				Name: "quarantine-rate", Kind: KindRatio,
				Bad:    "health_transitions_quarantined_total",
				Total:  "netauth_sessions_completed_total",
				Target: 0.99,
			},
			LongWindow: 10 * time.Minute, ShortWindow: 2 * time.Minute,
			Burn: 2, PendingFor: 20 * time.Second, ResolveAfter: time.Minute,
			Severity: "ticket",
		},
		{
			Objective: Objective{
				Name: "replication-lag-p99", Kind: KindGauge,
				Gauge: "repl_lag_records", Quantile: 0.99, Limit: 512,
			},
			LongWindow: 5 * time.Minute, ShortWindow: time.Minute,
			Burn: 1, PendingFor: 20 * time.Second, ResolveAfter: time.Minute,
			Severity: "page",
		},
		{
			Objective: Objective{
				Name: "keyex-success-rate", Kind: KindRatio,
				Good:   "netauth_keyex_established_total",
				Total:  "netauth_keyex_started_total",
				Target: 0.99,
			},
			LongWindow: 5 * time.Minute, ShortWindow: time.Minute,
			Burn: 2, PendingFor: 10 * time.Second, ResolveAfter: 30 * time.Second,
			Severity: "page",
		},
		{
			Objective: Objective{
				Name: "rebalance-fence-p99", Kind: KindLatency,
				Histogram: "rebalance_fence_seconds", Quantile: 0.99, Threshold: 0.5,
			},
			LongWindow: 5 * time.Minute, ShortWindow: time.Minute,
			Burn: 1, PendingFor: 10 * time.Second, ResolveAfter: 30 * time.Second,
			Severity: "page",
		},
	}
}
