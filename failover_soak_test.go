package xorpuf_test

// Failover soak: the acceptance test for the replication layer.  A fleet is
// enrolled into a primary registry and served over real TCP behind the
// session gateway, with a follower tailing the primary's WAL under strict
// quorum (no challenge leaves the server unacked).  Mid-traffic the primary
// is killed -9 (server torn down, registry abandoned without Close), the
// follower is promoted, and the gateway re-routes the same device addresses
// onto the promoted copy.  The test asserts the replication contract:
//
//   - no challenge word is ever issued twice to any chip ID, across the
//     whole history spanning both server incarnations — the Fig 7
//     never-reuse invariant survives the failover;
//   - genuine devices keep authenticating at zero HD after promotion, via
//     the same gateway address, with no device-side reconfiguration;
//   - impostor traffic mixed into the stream stays denied on both sides of
//     the failover and burns from the same per-chip pools;
//   - the whole stack (gateway, both servers, primary, follower) unwinds
//     without leaking goroutines.

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"xorpuf/internal/challenge"
	"xorpuf/internal/core"
	"xorpuf/internal/netauth"
	"xorpuf/internal/registry"
	"xorpuf/internal/registry/fleet"
	"xorpuf/internal/registry/repl"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
)

const (
	failChips      = 24
	failXOR        = 2
	failFleetSeed  = 616
	failRegSeed    = 23
	failPerSession = 10
	failWorkers    = 4
	// Chips 22 and 23 also see counterfeit silicon; their post-failover
	// health is not asserted (impostor mismatches feed the drift detectors).
	failImpostorFrom = 22
)

func failChipID(i int) string { return fmt.Sprintf("chip-%d", i) }

// authOnce runs one authentication session on a connection of its own:
// a single attempt, no retry, under one overall deadline.
func authOnce(addr, chipID string, dev core.Device, cond silicon.Condition, timeout time.Duration) (netauth.Result, error) {
	c := &netauth.V2Client{Addr: addr, ChipID: chipID, Device: dev, Cond: cond,
		Timeout: timeout, Policy: netauth.RetryPolicy{MaxAttempts: 1}}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.Authenticate(ctx)
}

// recordingDevice wraps fielded silicon and logs every challenge word the
// verifier sends for one chip ID — the raw material of the never-reuse
// audit.  Both the genuine and the counterfeit device for a chip ID share
// the same map: they draw from the same server-side pool.
type recordingDevice struct {
	inner core.Device
	mu    *sync.Mutex
	seen  map[uint64]int
}

func (d recordingDevice) ReadXOR(c challenge.Challenge, cond silicon.Condition) uint8 {
	d.mu.Lock()
	d.seen[c.Word()]++
	d.mu.Unlock()
	return d.inner.ReadXOR(c, cond)
}

func TestFailoverSoakNeverReusesChallenges(t *testing.T) {
	if testing.Short() {
		t.Skip("failover soak skipped in -short mode")
	}
	baseGoroutines := runtime.NumGoroutine()

	// --- Two registries with the same Seed: primary and follower must draw
	// identical selector candidate streams or the replicated Used-sets would
	// filter different words.
	reg1, err := registry.Open(t.TempDir(), registry.Options{Seed: failRegSeed})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.Run(fleet.Config{
		Chips: failChips, Workers: 4, XORWidth: failXOR,
		Seed: failFleetSeed, Enroll: soakEnroll(),
	}, reg1)
	if err != nil || rep.Enrolled != failChips {
		t.Fatalf("fleet enrollment: %+v, %v", rep, err)
	}
	reg2, err := registry.Open(t.TempDir(), registry.Options{Seed: failRegSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()

	// --- Replication under strict quorum 1: an issuance only completes once
	// the follower has journaled it, so primary loss cannot lose burns.
	replLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	prim := repl.NewPrimary(reg1, repl.PrimaryConfig{Quorum: 1, Strict: true})
	go prim.Serve(replLn) //nolint:errcheck
	follCtx, follCancel := context.WithCancel(context.Background())
	defer follCancel()
	foll := repl.NewFollower(reg2, replLn.Addr().String(), repl.FollowerConfig{
		ReconnectMin: 10 * time.Millisecond, ReconnectMax: 100 * time.Millisecond,
	})
	go foll.Run(follCtx)
	deadline := time.Now().Add(10 * time.Second)
	for foll.Status().State != repl.StateStreaming {
		if time.Now().After(deadline) {
			t.Fatalf("follower never reached streaming: %+v", foll.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// --- Auth plane: the primary's server is live; the failover replica's
	// listener is pre-bound so the gateway's shard list is fixed up front,
	// but no server accepts on it until promotion.
	srv1 := netauth.NewServerWithRegistry(failPerSession, failRegSeed, reg1)
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv1.Serve(ln1) //nolint:errcheck
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	gw, err := netauth.NewGateway([]netauth.GatewayShard{
		{Name: "shard-0", Addrs: []string{ln1.Addr().String(), ln2.Addr().String()}},
	}, netauth.GatewayConfig{DialTimeout: time.Second, Cooldown: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	gwLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go gw.Serve(gwLn) //nolint:errcheck
	defer gw.Close()
	gwAddr := gwLn.Addr().String()

	// --- Devices: genuine silicon for every chip, counterfeits for the
	// impostor subset, every read recorded for the audit.
	var seenMu sync.Mutex
	seen := make([]map[uint64]int, failChips)
	genuine := make([]core.Device, failChips)
	counterfeit := make([]core.Device, failChips)
	for i := 0; i < failChips; i++ {
		seen[i] = make(map[uint64]int)
		genuine[i] = recordingDevice{
			inner: fleet.Chip(failFleetSeed, i, silicon.DefaultParams(), failXOR),
			mu:    &seenMu, seen: seen[i],
		}
		counterfeit[i] = recordingDevice{
			inner: silicon.NewChip(rng.New(^uint64(failFleetSeed)).Fork("counterfeit", i),
				silicon.DefaultParams(), failXOR),
			mu: &seenMu, seen: seen[i],
		}
	}

	// --- Traffic: workers hammer the gateway with mixed sessions.  Errors
	// are tolerated (the kill window refuses, resets, and times out) — the
	// audit is about what was issued, not about availability during the cut.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var statMu sync.Mutex
	approvals, denials, failures := 0, 0, 0
	for w := 0; w < failWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (w + j*failWorkers) % failChips
				dev := genuine[i]
				if i >= failImpostorFrom && j%2 == 1 {
					dev = counterfeit[i]
				}
				res, err := authOnce(gwAddr, failChipID(i), dev, silicon.Nominal, 5*time.Second)
				statMu.Lock()
				switch {
				case err != nil:
					failures++
				case res.Approved:
					approvals++
				default:
					denials++
				}
				statMu.Unlock()
			}
		}(w)
	}
	awaitApprovals := func(want int, phase string) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			statMu.Lock()
			n := approvals
			statMu.Unlock()
			if n >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: only %d approvals after 30s", phase, n)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	awaitApprovals(2*failChips, "pre-failover traffic")

	// --- Kill -9 the primary mid-traffic: tear the server down and abandon
	// its registry without Close.  Every challenge that left it was acked by
	// the follower first (strict quorum), so the burn history is complete on
	// the surviving copy.
	srv1.Close()
	prim.Close()
	// reg1 is deliberately NOT closed: the primary process is dead.

	// --- Failover: promote the follower and start serving its registry on
	// the pre-bound replica address.  The gateway finds it by re-routing.
	promotedSeq := foll.Promote()
	if promotedSeq == 0 {
		t.Fatal("promoted at seq 0 — follower never applied anything")
	}
	srv2 := netauth.NewServerWithRegistry(failPerSession, failRegSeed, reg2)
	go srv2.Serve(ln2) //nolint:errcheck

	statMu.Lock()
	preFailoverApprovals := approvals
	statMu.Unlock()
	awaitApprovals(preFailoverApprovals+2*failChips, "post-failover traffic")
	close(stop)
	wg.Wait()

	// --- Post-failover sweep: every non-impostor chip still authenticates
	// at zero HD through the same gateway address.
	for i := 0; i < failImpostorFrom; i++ {
		res, err := authOnce(gwAddr, failChipID(i), genuine[i], silicon.Nominal, 10*time.Second)
		if err != nil {
			t.Fatalf("post-failover auth %s: %v", failChipID(i), err)
		}
		if !res.Approved || res.Mismatches != 0 {
			t.Fatalf("post-failover auth %s: %+v, want zero-HD approval", failChipID(i), res)
		}
		if got := srv2.ChipStatus(failChipID(i)).Issued; got == 0 {
			t.Fatalf("%s authenticated but the promoted replica issued nothing — gateway still on the corpse", failChipID(i))
		}
	}
	// Counterfeit silicon stays counterfeit on the promoted copy.
	res, err := authOnce(gwAddr, failChipID(failChips-1), counterfeit[failChips-1],
		silicon.Nominal, 10*time.Second)
	if err == nil && res.Approved {
		t.Fatal("impostor approved after failover")
	}

	// --- The audit: across the entire history — both server incarnations,
	// genuine and impostor sessions, the kill window included — no challenge
	// word was ever issued twice for the same chip ID.
	seenMu.Lock()
	total := 0
	for i, m := range seen {
		for word, n := range m {
			total++
			if n > 1 {
				t.Errorf("chip-%d: challenge %#x issued %d times across the failover", i, word, n)
			}
		}
	}
	seenMu.Unlock()
	if total < failChips*failPerSession {
		t.Fatalf("audit saw only %d distinct challenges — traffic never ran?", total)
	}
	t.Logf("audit: %d distinct challenges, %d approvals, %d denials, %d transport failures",
		total, approvals, denials, failures)

	// --- Shutdown unwinds cleanly: no goroutine may outlive its owner.
	srv2.Close()
	gw.Close()
	follCancel()
	if err := reg2.Close(); err != nil {
		t.Fatal(err)
	}
	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(leakDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines {
		t.Errorf("goroutine leak: %d before, %d after shutdown", baseGoroutines, n)
	}
}
