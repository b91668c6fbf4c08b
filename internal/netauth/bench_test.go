package netauth

import (
	"context"
	"net"
	"strconv"
	"testing"

	"xorpuf/internal/challenge"
	"xorpuf/internal/core"
	"xorpuf/internal/registry"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
	"xorpuf/internal/telemetry"
)

// benchChipModel is a synthetic model: random θ, thresholds that keep most
// random challenges stable.  No silicon, no enrollment — benchmark setup in
// microseconds.
func benchChipModel(seed uint64, width, stages int) *core.ChipModel {
	src := rng.New(seed)
	m := &core.ChipModel{Beta0: 1, Beta1: 1}
	for p := 0; p < width; p++ {
		theta := make([]float64, stages+1)
		for i := range theta {
			theta[i] = src.Float64()*0.5 - 0.25
		}
		theta[stages] = 0.5
		m.PUFs = append(m.PUFs, &core.PUFModel{Theta: theta, Thr0: 0.45, Thr1: 0.55})
	}
	return m
}

// modelAnswerDevice answers from the model itself — a perfectly stable
// genuine device, so every session takes the zero-HD approve path.
type modelAnswerDevice struct{ m *core.ChipModel }

func (d modelAnswerDevice) ReadXOR(c challenge.Challenge, _ silicon.Condition) uint8 {
	bit, _ := d.m.PredictXOR(c)
	return bit
}

// startBenchServer brings up a loopback server over one synthetic chip, with
// the telemetry plane wired as in production, and returns a ready client.
func startBenchServer(tb testing.TB, n int) *V2Client {
	tb.Helper()
	model := benchChipModel(7, 4, 64)
	reg, err := registry.Open("", registry.Options{Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { reg.Close() })
	const chipID = "bench-chip"
	if err := reg.Register(chipID, model, 0); err != nil {
		tb.Fatal(err)
	}
	srv := NewServerWithRegistry(n, 7, reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	tb.Cleanup(func() { srv.Close() })
	c := &V2Client{
		Addr:   ln.Addr().String(),
		ChipID: chipID,
		Device: modelAnswerDevice{m: model},
		Cond:   silicon.Nominal,
		Policy: RetryPolicy{MaxAttempts: 1},
	}
	tb.Cleanup(c.Close)
	return c
}

// BenchmarkAuthSessionE2E measures one full authentication session —
// hello, select, challenge round trip, verdict over a warm connection —
// per iteration, with the telemetry plane fully wired (the production
// configuration).
func BenchmarkAuthSessionE2E(b *testing.B) {
	client := startBenchServer(b, 16)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := client.Authenticate(ctx)
		if err != nil || !res.Approved {
			b.Fatalf("session %d: approved=%v err=%v", i, res.Approved, err)
		}
	}
}

// TestV2SessionAllocBudget pins the end-to-end (client + in-process
// server) allocation cost of one session on a warm connection.  The
// retired JSON protocol spent 220 allocs/session; the pooled binary codec
// must come in at or under a quarter of that.
func TestV2SessionAllocBudget(t *testing.T) {
	const budget = 55
	c := startBenchServer(t, 16)
	ctx := context.Background()
	// Warm up: dial, fill the buffer pools on both ends.
	for i := 0; i < 5; i++ {
		if res, err := c.Authenticate(ctx); err != nil || !res.Approved {
			t.Fatalf("warmup %d: %+v, %v", i, res, err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		res, err := c.Authenticate(ctx)
		if err != nil || !res.Approved {
			t.Fatalf("%+v, %v", res, err)
		}
	})
	t.Logf("v2 session: %.1f allocs (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("v2 session allocates %.1f/op end-to-end, budget %d", allocs, budget)
	}
}

// TestServerMetricsRecorded injects a private telemetry registry and checks
// the server's per-session instruments actually move: counters for started /
// completed / approved sessions, the RTT and session histograms, and one
// session record per session with the expected status and attrs.
func TestServerMetricsRecorded(t *testing.T) {
	model := benchChipModel(7, 4, 64)
	reg, err := registry.Open("", registry.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Register("chip-0", model, 0); err != nil {
		t.Fatal(err)
	}
	srv := NewServerWithRegistry(8, 7, reg)
	tel := telemetry.NewRegistry()
	srv.SetTelemetry(tel)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	client := &V2Client{
		Addr:   ln.Addr().String(),
		ChipID: "chip-0",
		Device: modelAnswerDevice{m: model},
		Cond:   silicon.Nominal,
		Policy: RetryPolicy{MaxAttempts: 1},
	}
	defer client.Close()
	res, err := client.Authenticate(context.Background())
	if err != nil || !res.Approved {
		t.Fatalf("approved=%v err=%v", res.Approved, err)
	}
	// A second session from an unknown chip exercises a denial counter.
	bad := &V2Client{
		Addr:   ln.Addr().String(),
		ChipID: "nope",
		Device: modelAnswerDevice{m: model},
		Cond:   silicon.Nominal,
		Policy: RetryPolicy{MaxAttempts: 1},
	}
	defer bad.Close()
	if _, err := bad.Authenticate(context.Background()); err == nil {
		t.Fatal("unknown chip must fail")
	}

	snap := tel.Snapshot()
	for name, want := range map[string]uint64{
		"netauth_sessions_started_total":   2,
		"netauth_sessions_completed_total": 1,
		"netauth_approved_total":           1,
		"netauth_denied_total":             0,
		"netauth_deny_unknown_chip_total":  1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if snap.Gauges["netauth_active_sessions"] != 0 {
		t.Errorf("active sessions gauge = %d after all sessions ended", snap.Gauges["netauth_active_sessions"])
	}
	for _, name := range []string{"netauth_session_seconds", "netauth_device_rtt_seconds", "netauth_select_seconds"} {
		if snap.Histograms[name].Count == 0 {
			t.Errorf("histogram %s never observed", name)
		}
	}
	if snap.Histograms["netauth_frame_bytes"].Count < 4 {
		t.Errorf("frame bytes observed %d times, want ≥ 4", snap.Histograms["netauth_frame_bytes"].Count)
	}

	records := srv.SessionRecorder().Spans()
	if len(records) != 2 {
		t.Fatalf("session ring holds %d records, want 2", len(records))
	}
	// Newest first: the unknown-chip refusal, then the approval.
	if r := records[0]; r.Name != "netauth.session" || r.Status != "refused:"+CodeUnknownChip ||
		r.Attrs["chip"] != "nope" || r.Attrs["challenges"] != "0" {
		t.Errorf("record[0] = %+v, want unknown_chip refusal of chip nope", r)
	}
	ok := records[1]
	if ok.Status != "ok" || ok.Attrs["chip"] != "chip-0" || ok.Attrs["session"] == "" || ok.Seconds <= 0 {
		t.Errorf("record[1] = %+v, want approved session for chip-0", ok)
	}
	for attr, want := range map[string]string{"challenges": "8", "mismatches": "0"} {
		if ok.Attrs[attr] != want {
			t.Errorf("approved record %s = %q, want %q", attr, ok.Attrs[attr], want)
		}
	}
	for _, attr := range []string{"select_us", "device_rtt_us"} {
		if _, err := strconv.Atoi(ok.Attrs[attr]); err != nil {
			t.Errorf("approved record %s = %q, want whole microseconds", attr, ok.Attrs[attr])
		}
	}
	// Untraced sessions mint no IDs.
	for _, r := range records {
		if !r.Trace.IsZero() || !r.ID.IsZero() {
			t.Errorf("untraced record %s carries IDs %s/%s", r.Status, r.Trace, r.ID)
		}
	}
}
