package slo

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"xorpuf/internal/telemetry"
	"xorpuf/internal/telemetry/history"
)

// fakeClock drives every test timeline — no sleeps anywhere in this suite.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

// harness bundles a registry, sampler, and engine on one fake clock.
type harness struct {
	clk     *fakeClock
	reg     *telemetry.Registry
	sampler *history.Sampler
	engine  *Engine
}

func newHarness(rules []Rule) *harness {
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	sampler := history.NewSampler(reg, history.Options{Now: clk.Now})
	return &harness{clk: clk, reg: reg, sampler: sampler, engine: NewEngine(sampler, rules)}
}

// tick advances the clock by d, samples, and evaluates.
func (h *harness) tick(d time.Duration) []Event {
	h.clk.Advance(d)
	h.sampler.Tick()
	return h.engine.Evaluate()
}

func ratioRule(pendingFor, resolveAfter time.Duration) Rule {
	return Rule{
		Objective: Objective{
			Name: "success", Kind: KindRatio,
			Good: "good_total", Total: "all_total", Target: 0.99,
		},
		LongWindow: time.Minute, ShortWindow: 20 * time.Second,
		Burn: 2, PendingFor: pendingFor, ResolveAfter: resolveAfter,
		Severity: "page",
	}
}

func stateOf(e *Engine, name string) string {
	for _, a := range e.Alerts() {
		if a.Name == name {
			return a.State
		}
	}
	return "<absent>"
}

// TestAlertMachineLifecycle drives pending → firing → resolved end to end
// on the fake clock.
func TestAlertMachineLifecycle(t *testing.T) {
	h := newHarness([]Rule{ratioRule(10*time.Second, 20*time.Second)})
	good := h.reg.Counter("good_total")
	all := h.reg.Counter("all_total")

	// Healthy baseline: 100 sessions, all good, across several ticks.
	for i := 0; i < 4; i++ {
		good.Add(25)
		all.Add(25)
		h.tick(5 * time.Second)
	}
	if st := stateOf(h.engine, "slo:success"); st != "inactive" {
		t.Fatalf("baseline state = %s, want inactive", st)
	}

	// Failure burst: 50%% bad events — burn 50x against a 1%% budget.
	all.Add(40)
	good.Add(20)
	evs := h.tick(5 * time.Second)
	if len(evs) != 1 || evs[0].ToState != "pending" {
		t.Fatalf("after burst: events %+v, want pending transition", evs)
	}

	// Condition persists past PendingFor → firing.
	all.Add(40)
	good.Add(20)
	evs = h.tick(10 * time.Second)
	if len(evs) != 1 || evs[0].ToState != "firing" {
		t.Fatalf("after dwell: events %+v, want firing", evs)
	}
	if f := h.engine.Firing(); len(f) != 1 || f[0].Name != "slo:success" {
		t.Fatalf("Firing() = %+v", f)
	}

	// Recovery: all-good traffic until both windows clear, then the
	// resolve dwell elapses → resolved.
	var resolved bool
	for i := 0; i < 12 && !resolved; i++ {
		good.Add(50)
		all.Add(50)
		for _, ev := range h.tick(10 * time.Second) {
			if ev.ToState == "resolved" {
				resolved = true
			}
		}
	}
	if !resolved {
		t.Fatalf("alert never resolved; state = %s", stateOf(h.engine, "slo:success"))
	}
	if len(h.engine.Firing()) != 0 {
		t.Fatal("Firing() not empty after resolution")
	}
}

// TestFlapSuppression: a condition that clears before PendingFor elapses
// must return to inactive without ever firing.  The 25 s dwell outlasts
// the 20 s short window, so a one-sample blip washes out of the short
// window (flipping the condition off) before the dwell can escalate it.
func TestFlapSuppression(t *testing.T) {
	h := newHarness([]Rule{ratioRule(25*time.Second, 20*time.Second)})
	good := h.reg.Counter("good_total")
	all := h.reg.Counter("all_total")
	for i := 0; i < 3; i++ {
		good.Add(30)
		all.Add(30)
		h.tick(5 * time.Second)
	}

	// One bad blip: enters pending…
	all.Add(10)
	h.tick(5 * time.Second)
	if st := stateOf(h.engine, "slo:success"); st != "pending" {
		t.Fatalf("after blip state = %s, want pending", st)
	}
	// …then traffic goes clean.  The short window (20 s) washes the blip
	// out before the 25 s dwell is up, flipping the condition off.
	var fired bool
	for i := 0; i < 8; i++ {
		good.Add(100)
		all.Add(100)
		for _, ev := range h.tick(5 * time.Second) {
			if ev.ToState == "firing" {
				fired = true
			}
		}
	}
	if fired {
		t.Fatal("flap fired despite clearing within PendingFor")
	}
	if st := stateOf(h.engine, "slo:success"); st != "inactive" {
		t.Fatalf("post-flap state = %s, want inactive (suppressed)", st)
	}
}

// TestMultiWindowGating: a spike inside the short window only must NOT
// trip the rule while the long window is still healthy — and vice versa a
// long-ago burn with a clean short window must not hold the alert up.
func TestMultiWindowGating(t *testing.T) {
	// Long window dominated by good traffic laid down first.
	h := newHarness([]Rule{{
		Objective: Objective{
			Name: "success", Kind: KindRatio,
			Good: "good_total", Total: "all_total", Target: 0.9,
		},
		LongWindow: 2 * time.Minute, ShortWindow: 10 * time.Second,
		Burn: 3, PendingFor: 0, ResolveAfter: 10 * time.Second,
		Severity: "page",
	}})
	good := h.reg.Counter("good_total")
	all := h.reg.Counter("all_total")
	for i := 0; i < 10; i++ {
		good.Add(100)
		all.Add(100)
		h.tick(5 * time.Second)
	}
	// Short burst of badness: short-window burn is huge, long-window burn
	// is diluted by the 1000 good sessions → condition must stay false.
	all.Add(30)
	h.tick(5 * time.Second)
	if st := stateOf(h.engine, "slo:success"); st != "inactive" {
		t.Fatalf("short-only spike tripped the rule: state = %s", st)
	}
}

// TestLatencyObjective: windowed p99 against a threshold, including the
// no-data gate when the histogram has no in-window observations.
func TestLatencyObjective(t *testing.T) {
	h := newHarness([]Rule{{
		Objective: Objective{
			Name: "latency", Kind: KindLatency,
			Histogram: "lat_seconds", Quantile: 0.99, Threshold: 0.005,
		},
		LongWindow: time.Minute, ShortWindow: 15 * time.Second,
		Burn: 1, PendingFor: 0, ResolveAfter: 10 * time.Second,
		Severity: "page",
	}})
	lat := h.reg.Histogram("lat_seconds", telemetry.LatencyBuckets)

	// No observations at all: no data, no alert.
	h.tick(5 * time.Second)
	h.tick(5 * time.Second)
	st := h.engine.Status()
	if len(st) != 1 || st[0].HasData {
		t.Fatalf("status with empty histogram = %+v, want HasData=false", st)
	}

	// Fast traffic: 1 ms, well under the 5 ms threshold.
	for i := 0; i < 3; i++ {
		for j := 0; j < 100; j++ {
			lat.Observe(0.001)
		}
		h.tick(5 * time.Second)
	}
	if s := stateOf(h.engine, "slo:latency"); s != "inactive" {
		t.Fatalf("fast traffic state = %s", s)
	}

	// Latency spike: 50 ms observations push windowed p99 over 5 ms in
	// both windows → fires immediately (PendingFor 0).
	var fired bool
	for i := 0; i < 4 && !fired; i++ {
		for j := 0; j < 100; j++ {
			lat.Observe(0.05)
		}
		for _, ev := range h.tick(5 * time.Second) {
			if ev.ToState == "firing" {
				fired = true
			}
		}
	}
	if !fired {
		t.Fatalf("latency spike never fired; status %+v", h.engine.Status())
	}
}

// TestGaugeObjective: windowed gauge-level quantile against a limit — the
// replication-lag shape.  A gauge that is never sampled (no follower in
// this deployment) must read as no-data, keeping the alert inactive.
func TestGaugeObjective(t *testing.T) {
	h := newHarness([]Rule{{
		Objective: Objective{
			Name: "lag", Kind: KindGauge,
			Gauge: "repl_lag", Quantile: 0.99, Limit: 100,
		},
		LongWindow: time.Minute, ShortWindow: 15 * time.Second,
		Burn: 1, PendingFor: 0, ResolveAfter: 10 * time.Second,
		Severity: "page",
	}})

	// The gauge does not exist yet: no data, alert inactive.
	h.tick(5 * time.Second)
	st := h.engine.Status()
	if len(st) != 1 || st[0].HasData {
		t.Fatalf("status with absent gauge = %+v, want HasData=false", st)
	}
	if s := stateOf(h.engine, "slo:lag"); s != "inactive" {
		t.Fatalf("absent-gauge state = %s", s)
	}

	// Healthy replication: lag bounded well under the limit.
	lag := h.reg.Gauge("repl_lag")
	for i := 0; i < 4; i++ {
		lag.Set(int64(5 + i))
		h.tick(5 * time.Second)
	}
	st = h.engine.Status()
	if len(st) != 1 || !st[0].HasData || st[0].GaugeValue > 100 {
		t.Fatalf("healthy status = %+v, want HasData under limit", st)
	}
	if s := stateOf(h.engine, "slo:lag"); s != "inactive" {
		t.Fatalf("healthy state = %s", s)
	}

	// The follower falls behind: lag over the limit in both windows fires
	// immediately (PendingFor 0).
	var fired bool
	for i := 0; i < 16 && !fired; i++ {
		lag.Set(800)
		for _, ev := range h.tick(5 * time.Second) {
			if ev.ToState == "firing" {
				fired = true
			}
		}
	}
	if !fired {
		t.Fatalf("lag spike never fired; status %+v", h.engine.Status())
	}

	// Catch-up: lag returns to near zero until both windows clear, then the
	// resolve dwell elapses.
	var resolvedAt string
	for i := 0; i < 24 && resolvedAt == ""; i++ {
		lag.Set(2)
		for _, ev := range h.tick(10 * time.Second) {
			if ev.ToState == "resolved" {
				resolvedAt = ev.Reason
			}
		}
	}
	if resolvedAt == "" {
		t.Fatalf("lag alert never resolved; state = %s", stateOf(h.engine, "slo:lag"))
	}
}

// TestBadCounterRatio: quarantine-rate-style objectives use Bad/Total with
// the bad counter possibly never registered — that must read as zero bad,
// not no-data.
func TestBadCounterRatio(t *testing.T) {
	h := newHarness([]Rule{{
		Objective: Objective{
			Name: "quarantine", Kind: KindRatio,
			Bad: "quarantined_total", Total: "sessions_total", Target: 0.99,
		},
		LongWindow: time.Minute, ShortWindow: 20 * time.Second,
		Burn: 2, PendingFor: 0, ResolveAfter: 10 * time.Second,
	}})
	sessions := h.reg.Counter("sessions_total")
	for i := 0; i < 4; i++ {
		sessions.Add(10)
		h.tick(5 * time.Second)
	}
	st := h.engine.Status()
	if len(st) != 1 || !st[0].HasData || st[0].GoodFraction != 1 {
		t.Fatalf("bad-absent status = %+v, want HasData good=1", st)
	}
	// Now quarantines appear: 5 of 10 new sessions → burn 50x.
	h.reg.Counter("quarantined_total").Add(5)
	sessions.Add(10)
	h.tick(5 * time.Second)
	if s := stateOf(h.engine, "slo:quarantine"); s != "firing" {
		t.Fatalf("quarantine burst state = %s, want firing", s)
	}
}

// TestEventLogAndHandlers covers the /slo and /alerts JSON surfaces,
// including content-type (the admin-mux contract for new endpoints).
func TestEventLogAndHandlers(t *testing.T) {
	h := newHarness([]Rule{ratioRule(0, 10*time.Second)})
	good := h.reg.Counter("good_total")
	all := h.reg.Counter("all_total")
	h.tick(5 * time.Second) // empty baseline sample
	good.Add(10)
	all.Add(20) // 50% bad → burn 50x, fires immediately (PendingFor 0)
	h.tick(5 * time.Second)

	sloSrv := httptest.NewServer(h.engine.SLOHandler())
	defer sloSrv.Close()
	resp, err := http.Get(sloSrv.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/slo Content-Type = %q", ct)
	}
	var statuses []ObjectiveStatus
	if err := json.NewDecoder(resp.Body).Decode(&statuses); err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 1 || statuses[0].Name != "success" {
		t.Fatalf("/slo = %+v", statuses)
	}

	alertSrv := httptest.NewServer(h.engine.AlertsHandler())
	defer alertSrv.Close()
	resp2, err := http.Get(alertSrv.URL + "/alerts?events=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/alerts Content-Type = %q", ct)
	}
	var payload struct {
		Alerts []Status `json:"alerts"`
		Events []Event  `json:"events"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Alerts) != 1 || payload.Alerts[0].State != "firing" {
		t.Fatalf("/alerts alerts = %+v", payload.Alerts)
	}
	if len(payload.Events) == 0 || payload.Events[len(payload.Events)-1].ToState != "firing" {
		t.Fatalf("/alerts events = %+v", payload.Events)
	}
}

// TestDefaultRulesCatalog sanity-checks the shipped catalog: every rule
// names a real metric family and carries sane windows.
func TestDefaultRulesCatalog(t *testing.T) {
	rules := DefaultRules()
	if len(rules) != 7 {
		t.Fatalf("DefaultRules count = %d", len(rules))
	}
	if rules[len(rules)-1].Objective.Name != "rebalance-fence-p99" {
		t.Fatalf("last rule = %q, want rebalance-fence-p99", rules[len(rules)-1].Objective.Name)
	}
	seen := map[string]bool{}
	for _, r := range rules {
		if r.Objective.Name == "" || seen[r.Objective.Name] {
			t.Fatalf("bad or duplicate objective name %q", r.Objective.Name)
		}
		seen[r.Objective.Name] = true
		if r.LongWindow <= r.ShortWindow {
			t.Errorf("%s: long window %v not > short %v", r.Objective.Name, r.LongWindow, r.ShortWindow)
		}
		if r.Burn <= 0 {
			t.Errorf("%s: burn %v", r.Objective.Name, r.Burn)
		}
		switch r.Objective.Kind {
		case KindRatio:
			if r.Objective.Total == "" || (r.Objective.Good == "") == (r.Objective.Bad == "") {
				t.Errorf("%s: ratio objective needs Total and exactly one of Good/Bad", r.Objective.Name)
			}
		case KindLatency:
			if r.Objective.Histogram == "" || r.Objective.Threshold <= 0 {
				t.Errorf("%s: latency objective incomplete", r.Objective.Name)
			}
		case KindGauge:
			if r.Objective.Gauge == "" || r.Objective.Limit <= 0 {
				t.Errorf("%s: gauge objective incomplete", r.Objective.Name)
			}
		}
	}
}

// TestLatencyExemplarTrace: a fired latency alert must carry the histogram's
// most recent exemplar trace ID on both the transition event and the /alerts
// status, so the page names a concrete session to pull up.
func TestLatencyExemplarTrace(t *testing.T) {
	h := newHarness([]Rule{{
		Objective: Objective{
			Name: "latency", Kind: KindLatency,
			Histogram: "lat_seconds", Quantile: 0.99, Threshold: 0.005,
		},
		LongWindow: time.Minute, ShortWindow: 15 * time.Second,
		Burn: 1, PendingFor: 0, ResolveAfter: 10 * time.Second,
		Severity: "page",
	}})
	lat := h.reg.Histogram("lat_seconds", telemetry.LatencyBuckets)

	const trace = "0123456789abcdef0123456789abcdef"
	var fired *Event
	for i := 0; i < 4 && fired == nil; i++ {
		for j := 0; j < 100; j++ {
			lat.ObserveExemplar(0.05, trace)
		}
		for _, ev := range h.tick(5 * time.Second) {
			if ev.ToState == "firing" {
				e := ev
				fired = &e
			}
		}
	}
	if fired == nil {
		t.Fatalf("latency spike never fired; status %+v", h.engine.Status())
	}
	if fired.ExemplarTrace != trace {
		t.Fatalf("firing event exemplar = %q, want %q", fired.ExemplarTrace, trace)
	}
	for _, a := range h.engine.Alerts() {
		if a.Name != "slo:latency" {
			continue
		}
		if a.ExemplarTrace != trace {
			t.Fatalf("alert status exemplar = %q, want %q", a.ExemplarTrace, trace)
		}
		return
	}
	t.Fatal("slo:latency alert missing from Alerts()")
}
