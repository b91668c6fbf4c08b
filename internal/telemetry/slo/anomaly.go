package slo

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// AnomalyConfig tunes the per-chip attack-pattern detector.  The zero
// value takes every default.
//
// Rationale: the paper's security argument is quantitative — an n ≥ 10 XOR
// PUF resists modeling at ~10⁶ CRPs — and the chosen-challenge /
// reliability-assisted attacks all share one observable precondition: the
// attacker must pull CRPs out of one chip far faster, and with a far
// stranger denial mix, than any legitimate device ever authenticates.
// Challenge-consumption velocity and denial fraction per chip are therefore
// the two signals; a chip tripping both (or velocity alone at extreme rate)
// raises a suspected-modeling-attack alert through the same pending →
// firing → resolved machine as the SLO rules.
type AnomalyConfig struct {
	// Window is the trailing window velocities are measured over
	// (default 1 min).
	Window time.Duration
	// MaxChallengesPerMin is the per-chip challenge-consumption velocity
	// that alone marks farming, regardless of verdicts (default 1000 —
	// a legitimate device authenticates a handful of times a minute at
	// ~100 challenges each).
	MaxChallengesPerMin float64
	// SuspectChallengesPerMin and SuspectDenialFraction together mark the
	// cheaper signature: moderately elevated consumption whose sessions
	// mostly fail (an impostor or a model still below the zero-HD bar).
	// Defaults 300 and 0.5.
	SuspectChallengesPerMin float64
	SuspectDenialFraction   float64
	// MinSessions is how many sessions must fall in the window before the
	// detector judges at all (default 5).
	MinSessions int
	// PendingFor / ResolveAfter are the alert dwells (defaults 10 s / 30 s).
	PendingFor   time.Duration
	ResolveAfter time.Duration
	// MaxChips bounds tracked per-chip state; when exceeded, the
	// longest-idle chip is evicted (default 4096).
	MaxChips int
}

func (c *AnomalyConfig) fillDefaults() {
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if c.MaxChallengesPerMin <= 0 {
		c.MaxChallengesPerMin = 1000
	}
	if c.SuspectChallengesPerMin <= 0 {
		c.SuspectChallengesPerMin = 300
	}
	if c.SuspectDenialFraction <= 0 {
		c.SuspectDenialFraction = 0.5
	}
	if c.MinSessions <= 0 {
		c.MinSessions = 5
	}
	if c.PendingFor < 0 {
		c.PendingFor = 0
	} else if c.PendingFor == 0 {
		c.PendingFor = 10 * time.Second
	}
	if c.ResolveAfter <= 0 {
		c.ResolveAfter = 30 * time.Second
	}
	if c.MaxChips <= 0 {
		c.MaxChips = 4096
	}
}

// sessionSample is one observed session in a chip's sliding window.
type sessionSample struct {
	at         time.Time
	challenges int
	denied     bool
}

// chipWindow is one chip's sliding window plus its alert machine.
type chipWindow struct {
	samples []sessionSample
	alert   alertMachine
	lastAt  time.Time
}

// trim drops samples older than the window.
func (c *chipWindow) trim(since time.Time) {
	keep := c.samples[:0]
	for _, s := range c.samples {
		if !s.at.Before(since) {
			keep = append(keep, s)
		}
	}
	c.samples = keep
}

// AnomalyDetector watches per-chip challenge-consumption velocity and
// denial mix and raises suspected-modeling-attack alerts.  It implements
// Evaluator; attach it to an Engine so its alerts share the /alerts
// surface.  Feeding (ObserveSession) and evaluation are both
// concurrency-safe.
type AnomalyDetector struct {
	cfg AnomalyConfig
	now func() time.Time

	mu    sync.Mutex
	chips map[string]*chipWindow
}

// NewAnomalyDetector builds a detector on the given clock (required — the
// detector, like the sampler, never reads the wall clock itself).
func NewAnomalyDetector(cfg AnomalyConfig, now func() time.Time) *AnomalyDetector {
	if now == nil {
		now = time.Now
	}
	cfg.fillDefaults()
	return &AnomalyDetector{cfg: cfg, now: now, chips: make(map[string]*chipWindow)}
}

// AlertNameFor is the alert identity for one chip's detector.
func AlertNameFor(chipID string) string { return "suspected-modeling-attack:" + chipID }

// ChipIDFromAlert inverts AlertNameFor, returning "" for non-anomaly
// alert names — the enforcement hook uses it to find which chip to lock.
func ChipIDFromAlert(name string) string {
	const prefix = "suspected-modeling-attack:"
	if len(name) > len(prefix) && name[:len(prefix)] == prefix {
		return name[len(prefix):]
	}
	return ""
}

// ObserveSession feeds one completed (or refused) session: how many
// challenges it burned and whether it ended in a denial.  Refused sessions
// (throttled, locked out) burn zero challenges but still count toward the
// denial mix — a lockout storm on one chip is itself an attack signature.
func (d *AnomalyDetector) ObserveSession(chipID string, challenges int, denied bool) {
	if chipID == "" {
		return
	}
	now := d.now()
	d.mu.Lock()
	defer d.mu.Unlock()
	cw := d.chips[chipID]
	if cw == nil {
		if len(d.chips) >= d.cfg.MaxChips {
			d.evictIdlest()
		}
		cw = &chipWindow{}
		d.chips[chipID] = cw
	}
	cw.samples = append(cw.samples, sessionSample{at: now, challenges: challenges, denied: denied})
	cw.lastAt = now
	cw.trim(now.Add(-d.cfg.Window))
}

// evictIdlest drops the longest-idle chip; caller holds d.mu.  Chips with
// a non-inactive alert are never evicted — an attacker must not be able to
// flush their own alert by spraying other chip IDs.
func (d *AnomalyDetector) evictIdlest() {
	var (
		victim string
		oldest time.Time
	)
	for id, cw := range d.chips {
		if cw.alert.state == Pending || cw.alert.state == Firing {
			continue
		}
		if victim == "" || cw.lastAt.Before(oldest) {
			victim, oldest = id, cw.lastAt
		}
	}
	if victim != "" {
		delete(d.chips, victim)
	}
}

// judge computes one chip's condition over its trimmed window.
func (d *AnomalyDetector) judge(cw *chipWindow) (cond bool, velocity float64, reason string) {
	sessions := len(cw.samples)
	challenges, denials := 0, 0
	for _, s := range cw.samples {
		challenges += s.challenges
		if s.denied {
			denials++
		}
	}
	perMin := float64(challenges) / d.cfg.Window.Minutes()
	if sessions < d.cfg.MinSessions {
		return false, perMin, ""
	}
	denialFrac := float64(denials) / float64(sessions)
	switch {
	case perMin >= d.cfg.MaxChallengesPerMin:
		return true, perMin, fmt.Sprintf(
			"challenge velocity %.0f/min over %v exceeds %.0f/min (CRP farming)",
			perMin, d.cfg.Window, d.cfg.MaxChallengesPerMin)
	case perMin >= d.cfg.SuspectChallengesPerMin && denialFrac >= d.cfg.SuspectDenialFraction:
		return true, perMin, fmt.Sprintf(
			"challenge velocity %.0f/min with %.0f%% denials over %v (chosen-challenge probing)",
			perMin, denialFrac*100, d.cfg.Window)
	}
	return false, perMin, ""
}

// Evaluate advances every tracked chip's alert to now (Evaluator).
func (d *AnomalyDetector) Evaluate(now time.Time) []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []Event
	for id, cw := range d.chips {
		cw.trim(now.Add(-d.cfg.Window))
		cond, velocity, reason := d.judge(cw)
		from, to, changed := cw.alert.step(cond, velocity, reason, now, d.cfg.PendingFor, d.cfg.ResolveAfter)
		if changed {
			out = append(out, Event{
				Name: AlertNameFor(id), Severity: "page",
				From: from, To: to, FromState: from.String(), ToState: to.String(),
				At: now, Value: velocity, Reason: cw.alert.lastReason,
			})
		}
		// Forget chips that have gone fully quiet and never fired, so the
		// map tracks the active fleet, not every chip ever seen.  Resolved
		// chips stay visible on /alerts until evicted by MaxChips pressure.
		if len(cw.samples) == 0 && cw.alert.state == Inactive {
			delete(d.chips, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Alerts snapshots every tracked chip's alert state (Evaluator).
func (d *AnomalyDetector) Alerts() []Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Status, 0, len(d.chips))
	for id, cw := range d.chips {
		out = append(out, cw.alert.status(AlertNameFor(id), "page"))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
