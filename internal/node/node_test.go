package node_test

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"xorpuf/internal/keyex"
	"xorpuf/internal/netauth"
	"xorpuf/internal/node"
	"xorpuf/internal/registry/fleet"
	"xorpuf/internal/silicon"
	"xorpuf/internal/telemetry"
)

// testConfig is serve's defaults on ephemeral ports, at an XOR width that
// enrolls in a fraction of a second per chip.
func testConfig() node.Config {
	return node.Config{
		Addr: "127.0.0.1:0", Chips: 2, XOR: 2, N: 100, Seed: 1,
		Timeout: 10 * time.Second, Drain: 5 * time.Second, Lockout: 5,
		Sample: 2 * time.Second, ReplQuorum: 1,
	}
}

func start(t *testing.T, cfg node.Config) *node.Node {
	t.Helper()
	nd, err := node.Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	return nd
}

// approveChip0 runs one session as fleet chip 0 and requires approval at
// zero Hamming distance.
func approveChip0(t *testing.T, nd *node.Node, cfg node.Config) {
	t.Helper()
	c := &netauth.V2Client{
		Addr: nd.AuthAddr(), ChipID: "chip-0",
		Device:  fleet.Chip(cfg.Seed, 0, silicon.DefaultParams(), cfg.XOR),
		Cond:    silicon.Nominal,
		Timeout: 10 * time.Second,
		Policy:  netauth.RetryPolicy{MaxAttempts: 1},
	}
	defer c.Close()
	res, err := c.Authenticate(context.Background())
	if err != nil || !res.Approved || res.Mismatches != 0 {
		t.Fatalf("chip-0 on %s: %+v, %v; want approved at zero HD", nd.AuthAddr(), res, err)
	}
}

func getJSON(t *testing.T, method, url string, v any) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %s", method, url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
}

// TestDurableNodeRestart: a durable node enrolls its fleet and approves a
// genuine chip; Close leaves the three final snapshots beside the WAL; a
// restart on the same state recovers the fleet without enrolling it again
// and keeps the chip's burned-challenge count.
func TestDurableNodeRestart(t *testing.T) {
	cfg := testConfig()
	cfg.State = t.TempDir()
	cfg.MigrateListen = "127.0.0.1:0"
	enrolled := telemetry.Default.Counter("fleet_enrolled_total")

	before := enrolled.Value()
	nd := start(t, cfg)
	if nd.MigrateAddr() == "" {
		t.Fatal("no migration address with MigrateListen set")
	}
	if got := enrolled.Value() - before; got != 2 || nd.Registry().Len() != 2 {
		t.Fatalf("first start enrolled %d, registry holds %d; want 2 and 2", got, nd.Registry().Len())
	}
	approveChip0(t, nd, cfg)
	issued := nd.Registry().Lookup("chip-0").Status().Issued
	if issued != cfg.N {
		t.Fatalf("chip-0 issued %d challenges, want %d", issued, cfg.N)
	}
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"metrics_final.json", "slo_final.json", "spans_final.json"} {
		b, err := os.ReadFile(filepath.Join(cfg.State, name))
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(b) {
			t.Errorf("%s is not JSON", name)
		}
	}

	before = enrolled.Value()
	nd = start(t, cfg)
	defer nd.Close()
	if got := enrolled.Value() - before; got != 0 || nd.Registry().Len() != 2 {
		t.Fatalf("restart enrolled %d, registry holds %d; want 0 and 2", got, nd.Registry().Len())
	}
	if got := nd.Registry().Lookup("chip-0").Status().Issued; got != issued {
		t.Fatalf("restart: chip-0 issued %d, want %d", got, issued)
	}
	approveChip0(t, nd, cfg)
}

// TestFollowerServesOnlyAfterPromotion: a follower replicates a primary's
// fleet and serves no authentication until POST /repl/promote; then it
// approves a genuine chip at zero HD from the replicated registry, its
// burn history included.
func TestFollowerServesOnlyAfterPromotion(t *testing.T) {
	pcfg := testConfig()
	pcfg.Primary = "127.0.0.1:0"
	pcfg.Admin = "127.0.0.1:0"
	prim := start(t, pcfg)
	primClosed := false
	defer func() {
		if !primClosed {
			prim.Close()
		}
	}()

	// A fixed authentication address, so the test can knock on it before
	// promotion: a port the kernel just handed out and took back.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fcfg := testConfig()
	fcfg.Addr = probe.Addr().String()
	probe.Close()
	fcfg.Follower = prim.ReplAddr()
	fcfg.Admin = "127.0.0.1:0"
	foll := start(t, fcfg)
	defer foll.Close()
	if conn, err := net.DialTimeout("tcp", fcfg.Addr, time.Second); err == nil || foll.AuthAddr() != "" {
		if conn != nil {
			conn.Close()
		}
		t.Fatalf("unpromoted follower accepts authentication on %s", fcfg.Addr)
	}

	var doc node.ReplDoc
	getJSON(t, http.MethodGet, "http://"+prim.AdminAddr()+"/repl", &doc)
	if doc.Role != "primary" || doc.Primary == nil {
		t.Fatalf("primary /repl = %+v", doc)
	}
	approveChip0(t, prim, pcfg)
	want := prim.Registry().Seq()
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, http.MethodGet, "http://"+foll.AdminAddr()+"/repl", &doc)
		if doc.Role != "follower" || doc.Follower == nil {
			t.Fatalf("follower /repl = %+v", doc)
		}
		if doc.Follower.AppliedSeq >= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d of %d (%s)", doc.Follower.AppliedSeq, want, doc.Follower.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	issued := prim.Registry().Lookup("chip-0").Status().Issued
	if err := prim.Close(); err != nil {
		t.Fatal(err)
	}
	primClosed = true

	var promoted struct {
		Promoted bool `json:"promoted"`
	}
	getJSON(t, http.MethodPost, "http://"+foll.AdminAddr()+"/repl/promote", &promoted)
	if !promoted.Promoted || foll.AuthAddr() != fcfg.Addr {
		t.Fatalf("promotion: %+v, auth address %q", promoted, foll.AuthAddr())
	}
	approveChip0(t, foll, fcfg)
	if got := foll.Registry().Lookup("chip-0").Status().Issued; got != issued+fcfg.N {
		t.Fatalf("promoted follower: chip-0 issued %d, want %d", got, issued+fcfg.N)
	}
	getJSON(t, http.MethodGet, "http://"+foll.AdminAddr()+"/repl", &doc)
	if doc.Role != "follower" || doc.Follower == nil || doc.Follower.State != "promoted" {
		t.Fatalf("promoted follower /repl = %+v", doc)
	}
}

// TestStartRefusesConflicts: every flag combination serve refuses is a
// *ConfigError from Start, before any listener or registry exists.
func TestStartRefusesConflicts(t *testing.T) {
	cases := map[string]func(*node.Config){
		"primary and follower": func(c *node.Config) { c.Primary, c.Follower, c.Admin = "127.0.0.1:0", "127.0.0.1:1", "127.0.0.1:0" },
		"follower, no admin":   func(c *node.Config) { c.Follower = "127.0.0.1:1" },
		"follower re-enrolls": func(c *node.Config) {
			c.Follower, c.Admin, c.AutoReenroll = "127.0.0.1:1", "127.0.0.1:0", true
		},
		"follower accepts migrations": func(c *node.Config) {
			c.Follower, c.Admin, c.MigrateListen = "127.0.0.1:1", "127.0.0.1:0", "127.0.0.1:0"
		},
		"bad key exchange code": func(c *node.Config) { c.KeyEx = &keyex.Config{M: 8, T: 200} },
	}
	for name, mutate := range cases {
		cfg := testConfig()
		cfg.State = t.TempDir()
		mutate(&cfg)
		nd, err := node.Start(cfg)
		var cerr *node.ConfigError
		if nd != nil || !errors.As(err, &cerr) {
			t.Errorf("%s: Start = %v, %v; want a *ConfigError", name, nd, err)
		}
		if entries, _ := os.ReadDir(cfg.State); len(entries) != 0 {
			t.Errorf("%s: refused Start left %d files in the state dir", name, len(entries))
		}
	}
}
