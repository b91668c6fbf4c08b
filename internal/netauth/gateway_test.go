package netauth

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"xorpuf/internal/core"
	"xorpuf/internal/keyex"
	"xorpuf/internal/registry"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
	"xorpuf/internal/wire"
)

// startGateway serves a gateway over the given shards on a loopback
// listener.
func startGateway(t *testing.T, shards []GatewayShard, cfg GatewayConfig) (*Gateway, string) {
	t.Helper()
	g, err := NewGateway(shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go g.Serve(ln) //nolint:errcheck
	t.Cleanup(g.Close)
	return g, ln.Addr().String()
}

func TestGatewayShardRingIsDeterministicAndSpread(t *testing.T) {
	shards := []GatewayShard{
		{Name: "shard-0", Addrs: []string{"127.0.0.1:1"}},
		{Name: "shard-1", Addrs: []string{"127.0.0.1:2"}},
	}
	g1, err := NewGateway(shards, GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGateway(shards, GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 400; i++ {
		id := "chip-" + string(rune('a'+i%26)) + "-" + time.Duration(i).String()
		a, b := g1.ShardFor(id), g2.ShardFor(id)
		if a.Name != b.Name {
			t.Fatalf("chip %q routed to %s and %s by identical rings", id, a.Name, b.Name)
		}
		counts[a.Name]++
	}
	for _, s := range shards {
		if counts[s.Name] < 40 {
			t.Fatalf("shard %s owns only %d/400 chips — ring badly skewed: %v", s.Name, counts[s.Name], counts)
		}
	}
}

func TestGatewayRoutesAndReroutesOnFailover(t *testing.T) {
	chip := silicon.NewChip(rng.New(1), silicon.DefaultParams(), 4)
	cfg := core.DefaultEnrollConfig()
	cfg.TrainingSize = 2000
	cfg.ValidationSize = 5000
	enr, err := core.EnrollChip(chip, rng.New(2), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Two independent verifiers holding the same enrollment, as primary and
	// promoted-follower would after failover.
	start := func() (*Server, net.Listener) {
		srv := NewServer(5, 3)
		if err := srv.Register("chip-A", enr.Model); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln) //nolint:errcheck
		return srv, ln
	}
	srv1, ln1 := start()
	srv2, ln2 := start()
	defer srv2.Close()

	_, gwAddr := startGateway(t, []GatewayShard{
		{Name: "shard-0", Addrs: []string{ln1.Addr().String(), ln2.Addr().String()}},
	}, GatewayConfig{Cooldown: 200 * time.Millisecond})

	res, err := authOnce(gwAddr, "chip-A", chip, silicon.Nominal, 10*time.Second)
	if err != nil || !res.Approved {
		t.Fatalf("auth via gateway: %+v, %v", res, err)
	}
	if got := srv1.ChipStatus("chip-A").Issued; got == 0 {
		t.Fatal("primary replica served no challenges — routed to the wrong backend")
	}

	// Primary replica dies; the same device address must keep working.
	srv1.Close()
	res, err = authOnce(gwAddr, "chip-A", chip, silicon.Nominal, 10*time.Second)
	if err != nil || !res.Approved {
		t.Fatalf("auth after failover: %+v, %v", res, err)
	}
	if got := srv2.ChipStatus("chip-A").Issued; got == 0 {
		t.Fatal("failover replica served no challenges — re-route did not happen")
	}
}

// TestGatewayKeyExchange runs a key exchange through a gateway.  The
// gateway re-encodes the keyex_init with its own trace context and relays
// the offer verbatim, so the transcript must bind the init's decoded chip
// ID and capability bits, not its bytes, for key confirmation to pass.
func TestGatewayKeyExchange(t *testing.T) {
	cfg := keyex.Config{M: 7, T: 8}
	addr, srv, chip := startKeyexServer(t, 30, cfg)
	_, gwAddr := startGateway(t, []GatewayShard{
		{Name: "shard-0", Addrs: []string{addr}},
	}, GatewayConfig{})

	ss, err := keyexClient(gwAddr, chip, silicon.Nominal).Establish(context.Background())
	if err != nil {
		t.Fatalf("Establish via gateway: %v", err)
	}
	defer ss.Close()
	if ss.Result.Cipher != keyex.CipherChaCha20Poly1305 {
		t.Fatalf("negotiated cipher %q via gateway", ss.Result.Cipher)
	}
	if err := ss.SendPayload([]byte("through the gateway")); err != nil {
		t.Fatalf("SendPayload via gateway: %v", err)
	}
	res, err := ss.Authenticate()
	if err != nil || !res.Approved {
		t.Fatalf("auth inside the channel via gateway: %+v, %v", res, err)
	}
	if got, want := srv.ChipStatus("chip-A").Issued, cfg.N()+30; got != want {
		t.Fatalf("server issued %d challenges, want %d (one key exchange and one session)", got, want)
	}
}

func TestGatewayRefusalsAreStructured(t *testing.T) {
	// A shard whose every replica is unreachable: sessions get a retryable
	// busy error, so devices back off and retry into the failover window.
	_, gwAddr := startGateway(t, []GatewayShard{
		{Name: "shard-0", Addrs: []string{"127.0.0.1:1"}},
	}, GatewayConfig{DialTimeout: 200 * time.Millisecond})

	chip := silicon.NewChip(rng.New(1), silicon.DefaultParams(), 2)
	_, err := authOnce(gwAddr, "chip-A", chip, silicon.Nominal, 5*time.Second)
	var perr *ProtocolError
	if !errors.As(err, &perr) || perr.Code != CodeBusy || !perr.Retryable {
		t.Fatalf("unroutable session error = %v, want retryable %s", err, CodeBusy)
	}

	// A session that does not open with a hello is refused outright, with
	// an error frame — whether it opens with another frame type or with
	// bytes that are not a frame at all.
	for _, opening := range [][]byte{
		wire.AppendFrame(nil, &wire.Msg{Type: wire.TBye}),
		[]byte("{\"type\":\"hello\",\"chip_id\":\"chip-A\"}\n"),
	} {
		rc := dialRaw(t, gwAddr)
		rc.sendBytes(opening)
		expectRefusal(t, rc, CodeBadMessage, false)
	}
}

func TestGatewayFollowsMovedRedirect(t *testing.T) {
	chip := silicon.NewChip(rng.New(1), silicon.DefaultParams(), 4)
	cfg := core.DefaultEnrollConfig()
	cfg.TrainingSize = 2000
	cfg.ValidationSize = 5000
	enr, err := core.EnrollChip(chip, rng.New(2), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Source registry enrolls the chip, then its range migrates away: the
	// target installs the snapshot and cuts over, the source journals the
	// departure with a redirect to the target's auth listener.
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

	srv2 := NewServerWithRegistry(5, 3, dstReg)
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(ln2) //nolint:errcheck
	defer srv2.Close()
	if err := srcReg.CutoverSource("m1", 1, "chip-A", "chip-B", ln2.Addr().String()); err != nil {
		t.Fatal(err)
	}
	srv1 := NewServerWithRegistry(5, 3, srcReg)
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv1.Serve(ln1) //nolint:errcheck
	defer srv1.Close()

	// A direct dial at the resurrected source gets the structured moved
	// error carrying the redirect — never an issuance.
	_, err = authOnce(ln1.Addr().String(), "chip-A", chip, silicon.Nominal, 5*time.Second)
	var perr *ProtocolError
	if !errors.As(err, &perr) || perr.Code != CodeMoved || !perr.Retryable || perr.Redirect != ln2.Addr().String() {
		t.Fatalf("direct dial at departed source = %v, want retryable %s with redirect %s", err, CodeMoved, ln2.Addr())
	}

	// The gateway still routes to the old owner, follows the redirect, and
	// the device sees a clean approval.
	before := gatewayRedirects.Value()
	_, gwAddr := startGateway(t, []GatewayShard{
		{Name: "shard-0", Addrs: []string{ln1.Addr().String()}},
	}, GatewayConfig{})
	res, err := authOnce(gwAddr, "chip-A", chip, silicon.Nominal, 10*time.Second)
	if err != nil || !res.Approved {
		t.Fatalf("auth through redirect: %+v, %v", res, err)
	}
	if gatewayRedirects.Value() != before+1 {
		t.Fatalf("gateway followed %d redirects, want 1", gatewayRedirects.Value()-before)
	}
	if got := srv2.ChipStatus("chip-A").Issued; got == 0 {
		t.Fatal("new owner served no challenges — redirect was not followed")
	}
}

func TestGatewayDownMarkBackoffGrowsAndJitters(t *testing.T) {
	g, err := NewGateway([]GatewayShard{
		{Name: "shard-0", Addrs: []string{"127.0.0.1:1"}},
	}, GatewayConfig{Cooldown: 100 * time.Millisecond, MaxCooldown: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	until := func() time.Time {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.down["b"].until
	}
	var waits []time.Duration
	for i := 0; i < 6; i++ {
		g.markDown("b")
		waits = append(waits, time.Until(until()))
	}
	// Jitter is ±50%, so even the widest short backoff stays below the
	// narrowest one three doublings later; and everything respects the cap.
	if waits[0] > 150*time.Millisecond || waits[0] <= 0 {
		t.Fatalf("first backoff %v outside (0, 1.5x base]", waits[0])
	}
	if waits[4] <= waits[0] {
		t.Fatalf("backoff did not grow: first %v, fifth %v", waits[0], waits[4])
	}
	for _, w := range waits {
		if w > 1500*time.Millisecond {
			t.Fatalf("backoff %v exceeds jittered cap", w)
		}
	}
	g.markUp("b")
	if g.isDown("b") {
		t.Fatal("markUp did not clear the down state")
	}
}
