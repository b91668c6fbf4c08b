package xorpuf_test

// SLO-plane acceptance test: a live TCP verification server is driven
// through a fault-injected latency spike and a chip-farming query pattern,
// and the burn-rate engine plus the attack-pattern anomaly detector must
// each walk their alert through pending → firing → resolved, while a
// chip's legitimate key exchanges raise nothing.  Latencies are real
// (faultnet injects them on the wire); every window and dwell runs on a
// fake clock, so the test sleeps only for the injected latency itself.
//
// A second test answers the operator's first two questions — why was this
// session slow, why did selection fail — from /metrics and /traces alone.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xorpuf/internal/challenge"
	"xorpuf/internal/core"
	"xorpuf/internal/faultnet"
	"xorpuf/internal/keyex"
	"xorpuf/internal/netauth"
	"xorpuf/internal/node"
	"xorpuf/internal/registry"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
	"xorpuf/internal/telemetry"
	"xorpuf/internal/telemetry/dtrace"
	"xorpuf/internal/telemetry/history"
	"xorpuf/internal/telemetry/slo"
)

// sloTestClock is the injected timeline for sampler, engine, and detector.
// Server handler goroutines read it through the session observer while the
// test goroutine advances it, so it must be locked.
type sloTestClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *sloTestClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *sloTestClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// sloTestModel fabricates a synthetic chip model that needs no silicon:
// random θ with thresholds wide enough that the selector finds stable
// challenges immediately.
func sloTestModel(seed uint64) *core.ChipModel {
	src := rng.New(seed)
	m := &core.ChipModel{Beta0: 1, Beta1: 1}
	for p := 0; p < 4; p++ {
		theta := make([]float64, 65)
		for i := range theta {
			theta[i] = src.Float64()*0.5 - 0.25
		}
		theta[64] = 0.5
		m.PUFs = append(m.PUFs, &core.PUFModel{Theta: theta, Thr0: 0.45, Thr1: 0.55})
	}
	return m
}

// sloTestDevice answers challenges straight from the enrolled model — a
// perfectly genuine device, so every session takes the approve path.
type sloTestDevice struct{ m *core.ChipModel }

func (d sloTestDevice) ReadXOR(c challenge.Challenge, _ silicon.Condition) uint8 {
	bit, _ := d.m.PredictXOR(c)
	return bit
}

func TestSLOAndAttackAlertsFireAndResolve(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()

	// --- Server with an isolated telemetry registry. -----------------------
	const perSession = 25
	reg, err := registry.Open("", registry.Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	models := map[string]*core.ChipModel{
		"chip-0": sloTestModel(7), // farming target
		"chip-1": sloTestModel(8), // latency-spike traffic
		"chip-2": sloTestModel(9), // legitimate key exchanges
	}
	for id, m := range models {
		if err := reg.Register(id, m, 0); err != nil {
			t.Fatal(err)
		}
	}
	telReg := telemetry.NewRegistry()
	srv := netauth.NewServerWithRegistry(perSession, 99, reg)
	srv.SetTelemetry(telReg)
	// m = 6: every key exchange burns 63 challenges.
	keyexCfg := keyex.Config{M: 6, T: 4}
	if err := srv.SetKeyExchange(keyexCfg); err != nil {
		t.Fatal(err)
	}

	// --- SLO plane on a fake clock, ticked by hand. ------------------------
	clk := &sloTestClock{t: time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)}
	sampler := history.NewSampler(telReg, history.Options{Now: clk.Now})
	engine := slo.NewEngine(sampler, []slo.Rule{{
		Objective: slo.Objective{
			Name: "session-latency-p99", Kind: slo.KindLatency,
			Histogram: "netauth_session_seconds", Quantile: 0.99, Threshold: 0.05,
		},
		LongWindow: 2 * time.Minute, ShortWindow: 30 * time.Second,
		Burn: 1, PendingFor: 10 * time.Second, ResolveAfter: 20 * time.Second,
		Severity: "page",
	}})
	detector := slo.NewAnomalyDetector(slo.AnomalyConfig{
		Window:              time.Minute,
		MaxChallengesPerMin: 400,
		MinSessions:         5,
		PendingFor:          10 * time.Second,
		ResolveAfter:        30 * time.Second,
	}, clk.Now)
	engine.Attach(detector)
	// The detector's own method is the feed, as in serve; the count lets
	// the test wait for key-exchange records, which close after the client
	// has already returned.
	var keyexObserved atomic.Int32
	srv.SetSessionObserver(func(chipID string, challenges int, denied bool) {
		detector.ObserveSession(chipID, challenges, denied)
		if chipID == "chip-2" {
			keyexObserved.Add(1)
		}
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	addr := ln.Addr().String()

	var events []slo.Event
	tickEval := func() []slo.Event {
		sampler.Tick()
		evs := engine.Evaluate()
		events = append(events, evs...)
		return evs
	}
	client := func(chipID string, slow bool) *netauth.V2Client {
		c := &netauth.V2Client{
			Addr: addr, ChipID: chipID, Device: sloTestDevice{m: models[chipID]},
			Cond: silicon.Nominal, Timeout: 10 * time.Second,
			Policy: netauth.RetryPolicy{MaxAttempts: 1},
		}
		if slow {
			// Real injected wire latency: the server's session histogram
			// records genuinely slow sessions, no clock tricks.
			c.DialContext = faultnet.NewDialer(faultnet.Config{Seed: 3, MaxLatency: 150 * time.Millisecond}).DialContext
		}
		t.Cleanup(c.Close)
		return c
	}
	authenticate := func(c *netauth.V2Client) {
		t.Helper()
		res, err := c.Authenticate(context.Background())
		if err != nil || !res.Approved {
			t.Fatalf("session on %s: approved=%v err=%v", c.ChipID, res.Approved, err)
		}
	}
	lastTo := func(name string) string {
		state := "<no-event>"
		for _, ev := range events {
			if ev.Name == name {
				state = ev.ToState
			}
		}
		return state
	}
	const latencyAlert = "slo:session-latency-p99"
	farmAlert := slo.AlertNameFor("chip-0")

	// --- Baseline + healthy traffic: nothing fires. ------------------------
	tickEval() // empty baseline sample
	fast1 := client("chip-1", false)
	for i := 0; i < 6; i++ {
		authenticate(fast1)
		clk.Advance(10 * time.Second)
		if evs := tickEval(); len(evs) != 0 {
			t.Fatalf("healthy traffic raised events: %+v", evs)
		}
	}

	// --- Latency spike: burn-rate alert goes pending, then firing. ---------
	slow1 := client("chip-1", true)
	for i := 0; i < 4; i++ {
		authenticate(slow1)
	}
	clk.Advance(5 * time.Second)
	tickEval()
	if got := lastTo(latencyAlert); got != "pending" {
		t.Fatalf("after spike batch 1: %s = %s, want pending", latencyAlert, got)
	}
	for i := 0; i < 4; i++ {
		authenticate(slow1)
	}
	clk.Advance(15 * time.Second)
	tickEval()
	if got := lastTo(latencyAlert); got != "firing" {
		t.Fatalf("after spike batch 2: %s = %s, want firing", latencyAlert, got)
	}

	// --- Recovery: fast traffic only; alert resolves after the dwell. ------
	clk.Advance(time.Minute)
	authenticate(fast1)
	tickEval()
	clk.Advance(10 * time.Second)
	authenticate(fast1)
	tickEval()
	clk.Advance(15 * time.Second)
	tickEval()
	if got := lastTo(latencyAlert); got != "resolved" {
		t.Fatalf("after recovery: %s = %s, want resolved", latencyAlert, got)
	}

	// --- Chip farming: high challenge velocity on chip-0. ------------------
	// 20 approved sessions × 25 challenges in ~40 s of fake time is 500
	// challenges/min — over the 400/min ceiling.
	fast0 := client("chip-0", false)
	for i := 0; i < 20; i++ {
		authenticate(fast0)
		clk.Advance(2 * time.Second)
	}
	tickEval()
	if got := lastTo(farmAlert); got != "pending" {
		t.Fatalf("after farming burst: %s = %s, want pending", farmAlert, got)
	}
	clk.Advance(12 * time.Second)
	for i := 0; i < 3; i++ {
		authenticate(fast0)
	}
	tickEval()
	if got := lastTo(farmAlert); got != "firing" {
		t.Fatalf("after sustained farming: %s = %s, want firing", farmAlert, got)
	}

	// --- Farming stops: the anomaly alert resolves too. --------------------
	clk.Advance(90 * time.Second)
	tickEval() // window empty, clear dwell starts
	clk.Advance(40 * time.Second)
	tickEval()
	if got := lastTo(farmAlert); got != "resolved" {
		t.Fatalf("after farming stopped: %s = %s, want resolved", farmAlert, got)
	}

	// --- Key exchanges are not denials. ------------------------------------
	// 5 successful key exchanges × 63 challenges in ~10 s of fake time is
	// 315 challenges/min: over the 300/min suspect rate, under the 400/min
	// farming ceiling.  Each ends ok, so the probing signature (suspect rate
	// with ≥ 50 % denials) must not match at any evaluation.
	const keyexes = 5
	kc := client("chip-2", false)
	for i := 0; i < keyexes; i++ {
		ss, err := kc.Establish(context.Background())
		if err != nil {
			t.Fatalf("key exchange %d on chip-2: %v", i, err)
		}
		if ss.Result.Challenges != keyexCfg.N() {
			t.Fatalf("key exchange %d burned %d challenges, want %d", i, ss.Result.Challenges, keyexCfg.N())
		}
		_ = ss.Close()
		deadline := time.Now().Add(5 * time.Second)
		for keyexObserved.Load() < int32(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("key exchange %d never reached the session observer", i)
			}
			time.Sleep(time.Millisecond)
		}
		clk.Advance(2 * time.Second)
	}
	tickEval()
	clk.Advance(12 * time.Second)
	tickEval()
	if got := lastTo(slo.AlertNameFor("chip-2")); got != "<no-event>" {
		t.Fatalf("legitimate key exchanges on chip-2 raised %s", got)
	}

	// Both lifecycles must appear in the merged event log in order.
	for _, name := range []string{latencyAlert, farmAlert} {
		var seq []string
		for _, ev := range events {
			if ev.Name == name {
				seq = append(seq, ev.ToState)
			}
		}
		want := []string{"pending", "firing", "resolved"}
		if fmt.Sprint(seq) != fmt.Sprint(want) {
			t.Errorf("%s transitions = %v, want %v", name, seq, want)
		}
	}

	// --- Shutdown: no goroutines may leak from the whole exercise. ---------
	srv.Close()
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines {
		t.Errorf("goroutine leak: %d before, %d after shutdown", baseGoroutines, n)
	}
}

// TestOperatorQuestionsFromMetricsAndTraces answers "why was this session
// slow?" and "why did selection fail?" by scraping only /metrics and
// /traces of the admin plane of a node built as `puflab serve -admin`
// builds it.
func TestOperatorQuestionsFromMetricsAndTraces(t *testing.T) {
	const perSession = 25
	nd, err := node.Start(node.Config{
		Addr: "127.0.0.1:0", Admin: "127.0.0.1:0", N: perSession, Seed: 4, // registry seed 5
		Timeout: 10 * time.Second, Drain: 5 * time.Second, Lockout: 5,
		Sample: 2 * time.Second, ReplQuorum: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	reg := nd.Registry()
	models := map[string]*core.ChipModel{
		"chip-1": sloTestModel(8),  // slow wire
		"chip-3": sloTestModel(10), // budget below one session's challenges
	}
	if err := reg.Register("chip-1", models["chip-1"], 0); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("chip-3", models["chip-3"], perSession-1); err != nil {
		t.Fatal(err)
	}
	authAddr, adminURL := nd.AuthAddr(), "http://"+nd.AdminAddr()
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(adminURL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return body
	}
	traces := func(query string) []dtrace.View {
		t.Helper()
		var d dtrace.Dump
		if err := json.Unmarshal(get("/traces"+query), &d); err != nil {
			t.Fatalf("/traces%s: %v", query, err)
		}
		return d.Spans
	}

	// --- Why was this session slow?  The device round trip. ----------------
	slow := &netauth.V2Client{
		Addr: authAddr, ChipID: "chip-1", Device: sloTestDevice{m: models["chip-1"]},
		Cond: silicon.Nominal, Timeout: 10 * time.Second,
		Policy:      netauth.RetryPolicy{MaxAttempts: 1},
		DialContext: faultnet.NewDialer(faultnet.Config{Seed: 3, MaxLatency: 150 * time.Millisecond}).DialContext,
	}
	defer slow.Close()
	for i := 0; i < 4; i++ {
		if res, err := slow.Authenticate(context.Background()); err != nil || !res.Approved {
			t.Fatalf("slow session %d: approved=%v err=%v", i, res.Approved, err)
		}
	}
	rows := traces("?chip=chip-1&status=ok")
	if len(rows) != 4 {
		t.Fatalf("/traces?chip=chip-1&status=ok returned %d rows, want 4", len(rows))
	}
	slowest := rows[0]
	for _, r := range rows[1:] {
		if r.Seconds > slowest.Seconds {
			slowest = r
		}
	}
	rttUS, err := strconv.ParseFloat(slowest.Attrs["device_rtt_us"], 64)
	if err != nil {
		t.Fatalf("slowest row has no device_rtt_us: %+v", slowest)
	}
	t.Logf("slowest session %.1f ms, device_rtt_us %.0f", slowest.Seconds*1e3, rttUS)
	if slowest.Seconds < 0.02 || rttUS < 0.9*slowest.Seconds*1e6 {
		t.Fatalf("slowest session %.1f ms, device_rtt_us %.0f: want ≥ 20 ms carried by the device round trip",
			slowest.Seconds*1e3, rttUS)
	}

	// --- Why did selection fail?  The refusal, counted and recorded. -------
	starved := &netauth.V2Client{
		Addr: authAddr, ChipID: "chip-3", Device: sloTestDevice{m: models["chip-3"]},
		Cond: silicon.Nominal, Timeout: 10 * time.Second,
		Policy: netauth.RetryPolicy{MaxAttempts: 1},
	}
	defer starved.Close()
	var perr *netauth.ProtocolError
	if _, err := starved.Authenticate(context.Background()); !errors.As(err, &perr) || perr.Code != netauth.CodeSelectionFailed {
		t.Fatalf("starved chip: %v, want %s", err, netauth.CodeSelectionFailed)
	}
	var denied uint64
	for _, line := range strings.Split(string(get("/metrics")), "\n") {
		if _, err := fmt.Sscanf(line, "counter netauth_deny_selection_failed_total %d", &denied); err == nil {
			break
		}
	}
	if denied < 1 {
		t.Fatalf("/metrics netauth_deny_selection_failed_total = %d, want ≥ 1", denied)
	}
	rows = traces("?chip=chip-3&status=refused:selection_failed")
	if len(rows) != 1 || rows[0].Attrs["chip"] != "chip-3" || rows[0].Attrs["select_us"] == "" {
		t.Fatalf("/traces?chip=chip-3&status=refused:selection_failed = %+v, want chip-3's row with select_us", rows)
	}
}
