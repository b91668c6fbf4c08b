package netauth

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"xorpuf/internal/core"
	"xorpuf/internal/keyex"
	"xorpuf/internal/registry"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
	"xorpuf/internal/telemetry"
	"xorpuf/internal/telemetry/dtrace"
)

// startMovedPair builds the post-migration topology of
// TestGatewayFollowsMovedRedirect: the source serve answers chip-A with a
// moved redirect to the destination serve, which owns the chip.  Returns
// both auth addresses.
func startMovedPair(t *testing.T, chip *silicon.Chip) (srcAddr, dstAddr string) {
	t.Helper()
	cfg := core.DefaultEnrollConfig()
	cfg.TrainingSize = 2000
	cfg.ValidationSize = 5000
	enr, err := core.EnrollChip(chip, rng.New(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srcReg, err := registry.Open("", registry.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dstReg, err := registry.Open("", registry.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := srcReg.Register("chip-A", enr.Model, 0); err != nil {
		t.Fatal(err)
	}
	snap, _, _, err := srcReg.RangeSnapshot("chip-A", "chip-B")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dstReg.InstallMigrating("m1", "chip-A", "chip-B", snap); err != nil {
		t.Fatal(err)
	}
	if _, err := dstReg.CutoverTarget("m1", 1); err != nil {
		t.Fatal(err)
	}
	srvDst := NewServerWithRegistry(5, 3, dstReg)
	lnDst, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srvDst.Serve(lnDst) //nolint:errcheck
	t.Cleanup(srvDst.Close)
	if err := srcReg.CutoverSource("m1", 1, "chip-A", "chip-B", lnDst.Addr().String()); err != nil {
		t.Fatal(err)
	}
	srvSrc := NewServerWithRegistry(5, 3, srcReg)
	lnSrc, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srvSrc.Serve(lnSrc) //nolint:errcheck
	t.Cleanup(srvSrc.Close)
	return lnSrc.Addr().String(), lnDst.Addr().String()
}

// mintTrace fabricates a device-side trace context — what `puflab auth
// -trace` sends.  The minted span itself is never recorded anywhere (the
// device has no recorder to scrape); the server's spans parent to it.
func mintTrace() dtrace.Context {
	return dtrace.Context{Trace: dtrace.NewTraceID(), Span: dtrace.NewSpanID()}
}

// waitSpans polls dtrace.Default until the trace has at least n spans or the
// deadline passes.  The session span ends in a server-side defer that races
// the client's verdict read, so every assertion on recorded spans polls.
func waitSpans(t *testing.T, tid dtrace.TraceID, n int) []dtrace.Span {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		spans := dtrace.Default.ByTrace(tid)
		if len(spans) >= n {
			return spans
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s: %d spans recorded, want ≥ %d: %+v", tid, len(spans), n, spans)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func spanNamed(spans []dtrace.Span, name string) *dtrace.Span {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
	}
	return nil
}

// TestTraceSessionSpans: a traced single session records the full
// server-side subtree — select and netauth.session under the device's
// context, device_rtt under the session — plus the /traces cross-link
// and the session-latency histogram exemplar.
func TestTraceSessionSpans(t *testing.T) {
	addr, srv, chip := startServer(t, 30)
	tc := mintTrace()
	c := &V2Client{
		Addr: addr, ChipID: "chip-A", Device: chip, Cond: silicon.Nominal,
		Timeout: 5 * time.Second, Trace: tc.String(),
	}
	defer c.Close()
	res, err := c.Authenticate(context.Background())
	if err != nil || !res.Approved {
		t.Fatalf("traced session: %+v, %v", res, err)
	}

	spans := waitSpans(t, tc.Trace, 3)
	sess := spanNamed(spans, "netauth.session")
	if sess == nil {
		t.Fatalf("no netauth.session span in %+v", spans)
	}
	if sess.Parent != tc.Span {
		t.Errorf("session parent = %s, want the device span %s", sess.Parent, tc.Span)
	}
	if sess.Status != "ok" || sess.Attrs["chip"] != "chip-A" || sess.Attrs["proto"] != "v2" {
		t.Errorf("session span status=%q attrs=%v", sess.Status, sess.Attrs)
	}
	// One select span covers the hello's whole batch, so it is the
	// session's sibling; the device round trip is the session's own child.
	for name, parent := range map[string]dtrace.SpanID{"select": tc.Span, "device_rtt": sess.ID} {
		child := spanNamed(spans, name)
		if child == nil {
			t.Fatalf("no %s span in %+v", name, spans)
		}
		if child.Parent != parent {
			t.Errorf("%s parent = %s, want %s", name, child.Parent, parent)
		}
	}

	// Cross-link: the session's /traces row is the same span, so it carries
	// the trace ID that points into /trace/spans.
	recent := srv.SessionRecorder().Spans()
	if len(recent) != 1 || recent[0].Trace != tc.Trace || recent[0].ID != sess.ID {
		t.Fatalf("/traces row = %+v, want the session span %s of trace %s", recent, sess.ID, tc.Trace)
	}

	// Exemplar: the latency histogram names this trace.
	h := telemetry.Default.FindHistogram("netauth_session_seconds")
	if h == nil {
		t.Fatal("netauth_session_seconds not registered")
	}
	if trace, _ := h.Exemplar(); trace != tc.Trace.String() {
		t.Errorf("session histogram exemplar = %q, want %s", trace, tc.Trace)
	}
}

// TestUntracedSessionsDoNotEvictTracedTrees: untraced sessions never enter
// the span ring, so even a minimum-size ring keeps one traced session's
// tree through any volume of untraced traffic, while every session still
// lands in the /traces ring.
func TestUntracedSessionsDoNotEvictTracedTrees(t *testing.T) {
	spans := dtrace.NewRecorder(16)
	addr, srv, chip := startServerConfigured(t, 10, func(s *Server) { s.SetSpanRecorder(spans) })
	tc := mintTrace()
	traced := &V2Client{
		Addr: addr, ChipID: "chip-A", Device: chip, Cond: silicon.Nominal,
		Timeout: 5 * time.Second, Trace: tc.String(),
	}
	defer traced.Close()
	if res, err := traced.Authenticate(context.Background()); err != nil || !res.Approved {
		t.Fatalf("traced session: %+v, %v", res, err)
	}
	const untraced = 24
	plain := &V2Client{
		Addr: addr, ChipID: "chip-A", Device: chip, Cond: silicon.Nominal,
		Timeout: 5 * time.Second,
	}
	defer plain.Close()
	for i := 0; i < untraced; i++ {
		if res, err := plain.Authenticate(context.Background()); err != nil || !res.Approved {
			t.Fatalf("untraced session %d: %+v, %v", i, res, err)
		}
	}

	tree := spans.ByTrace(tc.Trace)
	for _, name := range []string{"select", "netauth.session", "device_rtt"} {
		if spanNamed(tree, name) == nil {
			t.Errorf("traced tree lost its %s span: %+v", name, tree)
		}
	}
	if n := spans.Len(); n != len(tree) {
		t.Errorf("span ring holds %d spans, want only the traced tree's %d", n, len(tree))
	}
	if n := srv.SessionRecorder().Len(); n != untraced+1 {
		t.Errorf("session ring holds %d records, want %d", n, untraced+1)
	}
}

// observedSession is one call of the session observer.
type observedSession struct {
	challenges int
	denied     bool
}

// TestSessionObserverFeed: the anomaly detector's hook sees a successful
// key exchange as not denied, with every word it burned, and a refused
// unknown-chip hello as denied with nothing burned.
func TestSessionObserverFeed(t *testing.T) {
	var (
		mu  sync.Mutex
		got = map[string][]observedSession{}
	)
	cfg := keyex.Config{M: 7, T: 8}
	addr, srv, chip := startServerConfigured(t, 20, func(s *Server) {
		s.SetSessionObserver(func(chipID string, challenges int, denied bool) {
			mu.Lock()
			got[chipID] = append(got[chipID], observedSession{challenges, denied})
			mu.Unlock()
		})
		if err := s.SetKeyExchange(cfg); err != nil {
			t.Fatal(err)
		}
	})
	before := srv.ChipStatus("chip-A").Issued
	ss, err := keyexClient(addr, chip, silicon.Nominal).Establish(context.Background())
	if err != nil {
		t.Fatalf("Establish: %v", err)
	}
	_ = ss.Close()
	burned := srv.ChipStatus("chip-A").Issued - before
	if burned != cfg.N() {
		t.Fatalf("key exchange burned %d challenges, want %d", burned, cfg.N())
	}
	var perr *ProtocolError
	if _, err := Authenticate(addr, "chip-Z", chip, silicon.Nominal, 5*time.Second); !errors.As(err, &perr) || perr.Code != CodeUnknownChip {
		t.Fatalf("unknown chip: %v, want %s", err, CodeUnknownChip)
	}

	// The key exchange's record closes when its channel does, racing the
	// client's Close: poll.
	want := map[string][]observedSession{
		"chip-A": {{challenges: burned, denied: false}},
		"chip-Z": {{challenges: 0, denied: true}},
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		seen := fmt.Sprint(got)
		mu.Unlock()
		if seen == fmt.Sprint(want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("observer saw %s, want %s", seen, fmt.Sprint(want))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTraceV2BatchSpans: a traced pipelined batch records one select span
// (with the batch size) and one netauth.session span per stream, all under
// the caller's context, and feeds the pipelined histogram's exemplar.
func TestTraceV2BatchSpans(t *testing.T) {
	addr, _, chip := startServer(t, 10)
	tc := mintTrace()
	c := &V2Client{
		Addr: addr, ChipID: "chip-A", Device: chip, Cond: silicon.Nominal,
		Timeout: 5 * time.Second, Trace: tc.String(),
	}
	defer c.Close()
	const batch = 3
	results, err := c.AuthenticateBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if !res.Approved {
			t.Fatalf("stream %d denied: %+v", i, res)
		}
	}

	// batch sessions + 1 select + batch device_rtt.
	spans := waitSpans(t, tc.Trace, 2*batch+1)
	sel := spanNamed(spans, "select")
	if sel == nil || sel.Parent != tc.Span || sel.Attrs["batch"] != strconv.Itoa(batch) {
		t.Fatalf("select span %+v, want parent %s batch=%d", sel, tc.Span, batch)
	}
	var sessions int
	for _, s := range spans {
		if s.Name != "netauth.session" {
			continue
		}
		sessions++
		if s.Parent != tc.Span {
			t.Errorf("stream session parent = %s, want %s", s.Parent, tc.Span)
		}
		if s.Status != "ok" || s.Attrs["proto"] != "v2" || s.Attrs["stream"] == "" {
			t.Errorf("stream session status=%q attrs=%v", s.Status, s.Attrs)
		}
	}
	if sessions != batch {
		t.Errorf("%d netauth.session spans, want %d", sessions, batch)
	}
	h := telemetry.Default.FindHistogram("netauth_v2_pipelined_session_seconds")
	if h == nil {
		t.Fatal("netauth_v2_pipelined_session_seconds not registered")
	}
	if trace, _ := h.Exemplar(); trace != tc.Trace.String() {
		t.Errorf("pipelined histogram exemplar = %q, want %s", trace, tc.Trace)
	}
}

// TestTraceKeyexSpans: a traced key exchange records netauth.keyex with a
// keyex.derive child covering the burn + helper generation.
func TestTraceKeyexSpans(t *testing.T) {
	addr, _, chip := startKeyexServer(t, 20, keyex.Config{M: 7, T: 8})
	tc := mintTrace()
	c := keyexClient(addr, chip, silicon.Nominal)
	c.Trace = tc.String()
	ss, err := c.Establish(context.Background())
	if err != nil {
		t.Fatalf("Establish: %v", err)
	}
	_ = ss.Close()

	spans := waitSpans(t, tc.Trace, 2)
	sess := spanNamed(spans, "netauth.keyex")
	if sess == nil || sess.Parent != tc.Span {
		t.Fatalf("netauth.keyex span %+v, want parent %s", sess, tc.Span)
	}
	derive := spanNamed(spans, "keyex.derive")
	if derive == nil || derive.Parent != sess.ID {
		t.Fatalf("keyex.derive span %+v, want parent %s", derive, sess.ID)
	}
	if derive.Status != "ok" {
		t.Errorf("keyex.derive status = %q", derive.Status)
	}
}

// TestTraceHostileValues: malformed and oversized trace contexts in the
// hello are dropped — the session authenticates exactly as if untraced,
// and the server records nothing for them.  The codec-level twin lives in
// internal/wire/trace_ext_test.go.
func TestTraceHostileValues(t *testing.T) {
	addr, srv, chip := startServer(t, 20)
	big := make([]byte, 4096)
	for i := range big {
		big[i] = 'a'
	}
	cases := []struct {
		name  string
		trace string
	}{
		{"garbage", "not-a-trace"},
		{"missing_span", "00112233445566778899aabbccddeeff"},
		{"bad_separator", "00112233445566778899aabbccddeeff_0011223344556677"},
		{"non_hex", "zz112233445566778899aabbccddeeff-0011223344556677"},
		{"zero_ids", "00000000000000000000000000000000-0000000000000000"},
		{"oversized", string(big)},
		{"truncated", "00112233-00112233"},
	}
	for _, tcase := range cases {
		t.Run(tcase.name, func(t *testing.T) {
			c := &V2Client{
				Addr: addr, ChipID: "chip-A", Device: chip, Cond: silicon.Nominal,
				Timeout: 5 * time.Second, Trace: tcase.trace,
			}
			defer c.Close()
			res, err := c.Authenticate(context.Background())
			if err != nil || !res.Approved {
				t.Fatalf("hostile trace %q broke the session: %+v, %v", tcase.trace, res, err)
			}
			recent := srv.SessionRecorder().Spans()
			if len(recent) == 0 || !recent[0].Trace.IsZero() || recent[0].Status != "ok" {
				t.Fatalf("hostile trace %q leaked into the /traces row: %+v", tcase.trace, recent)
			}
		})
	}
}

// TestGatewayTraceAdoptsDeviceContext: a traced session through the gateway
// produces one connected tree — gateway.session under the device's span,
// gateway.hop and the backend's netauth.session under gateway.session.
// (Gateway and backend share dtrace.Default in-process; across real
// processes `puflab trace collect` merges the two rings.)
func TestGatewayTraceAdoptsDeviceContext(t *testing.T) {
	addr, _, chip := startServer(t, 10)
	_, gwAddr := startGateway(t, []GatewayShard{
		{Name: "shard-0", Addrs: []string{addr}},
	}, GatewayConfig{})

	tc := mintTrace()
	c := &V2Client{
		Addr: gwAddr, ChipID: "chip-A", Device: chip, Cond: silicon.Nominal,
		Timeout: 10 * time.Second, Trace: tc.String(),
	}
	res, err := c.Authenticate(context.Background())
	if err != nil || !res.Approved {
		t.Fatalf("traced session via gateway: %+v, %v", res, err)
	}
	c.Close() // the gateway.session span ends with the spliced connection

	// gateway.session + gateway.hop + netauth.session + select + device_rtt.
	spans := waitSpans(t, tc.Trace, 5)
	gw := spanNamed(spans, "gateway.session")
	if gw == nil {
		t.Fatalf("no gateway.session span in %+v", spans)
	}
	if gw.Parent != tc.Span {
		t.Errorf("gateway.session parent = %s, want device span %s", gw.Parent, tc.Span)
	}
	if gw.Status != "ok" || gw.Attrs["chip"] != "chip-A" {
		t.Errorf("gateway.session status=%q attrs=%v", gw.Status, gw.Attrs)
	}
	hop := spanNamed(spans, "gateway.hop")
	if hop == nil || hop.Parent != gw.ID {
		t.Fatalf("gateway.hop span %+v, want parent %s", hop, gw.ID)
	}
	if hop.Attrs["backend"] == "" {
		t.Errorf("gateway.hop missing backend attr: %v", hop.Attrs)
	}
	sess := spanNamed(spans, "netauth.session")
	if sess == nil || sess.Parent != gw.ID {
		t.Fatalf("netauth.session %+v, want parent gateway.session %s", sess, gw.ID)
	}
}

// TestGatewayTraceMintsRootForUntracedDevice: a device that sends no trace
// context still gets a gateway-minted trace, so operators can find sessions
// that devices did not instrument.
func TestGatewayTraceMintsRootForUntracedDevice(t *testing.T) {
	addr, _, chip := startServer(t, 10)
	_, gwAddr := startGateway(t, []GatewayShard{
		{Name: "shard-0", Addrs: []string{addr}},
	}, GatewayConfig{})

	begin := time.Now()
	res, err := Authenticate(gwAddr, "chip-A", chip, silicon.Nominal, 10*time.Second)
	if err != nil || !res.Approved {
		t.Fatalf("untraced session via gateway: %+v, %v", res, err)
	}

	// Find the freshly minted root: the newest gateway.session span started
	// after this test began.  It must be a root (no parent) and the
	// backend's netauth.session must hang beneath it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var gw *dtrace.Span
		for _, s := range dtrace.Default.Spans() {
			if s.Name == "gateway.session" && !s.Start.Before(begin) {
				cp := s
				gw = &cp
				break
			}
		}
		if gw != nil {
			if !gw.Parent.IsZero() {
				t.Fatalf("minted gateway.session has parent %s, want root", gw.Parent)
			}
			spans := waitSpans(t, gw.Trace, 3)
			sess := spanNamed(spans, "netauth.session")
			if sess == nil || sess.Parent != gw.ID {
				t.Fatalf("netauth.session %+v, want parent minted span %s", sess, gw.ID)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("gateway never recorded a minted gateway.session span")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGatewayTraceRedirectHop: when the backend answers moved, the gateway
// records one hop per attempt — the first with status "redirect" and the
// redirect target, the second against the new owner.
func TestGatewayTraceRedirectHop(t *testing.T) {
	chip := silicon.NewChip(rng.New(1), silicon.DefaultParams(), 4)
	srcAddr, dstAddr := startMovedPair(t, chip)
	_, gwAddr := startGateway(t, []GatewayShard{
		{Name: "shard-0", Addrs: []string{srcAddr}},
	}, GatewayConfig{})

	tc := mintTrace()
	c := &V2Client{
		Addr: gwAddr, ChipID: "chip-A", Device: chip, Cond: silicon.Nominal,
		Timeout: 10 * time.Second, Trace: tc.String(),
	}
	defer c.Close()
	res, err := c.Authenticate(context.Background())
	if err != nil || !res.Approved {
		t.Fatalf("redirected session: %+v, %v", res, err)
	}

	spans := waitSpans(t, tc.Trace, 4)
	var redirectHop, servedHop *dtrace.Span
	for i := range spans {
		if spans[i].Name != "gateway.hop" {
			continue
		}
		if spans[i].Status == "redirect" {
			redirectHop = &spans[i]
		} else {
			servedHop = &spans[i]
		}
	}
	if redirectHop == nil {
		t.Fatalf("no redirect hop in %+v", spans)
	}
	if redirectHop.Attrs["redirect"] != dstAddr {
		t.Errorf("redirect hop target = %q, want %s", redirectHop.Attrs["redirect"], dstAddr)
	}
	if servedHop == nil || servedHop.Status != "ok" {
		t.Fatalf("no ok hop after redirect: %+v", spans)
	}
}
