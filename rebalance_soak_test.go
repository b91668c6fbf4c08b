package xorpuf_test

// Rebalance soak: the acceptance test for live shard rebalancing.  A fleet
// is enrolled into a source registry and served over real TCP behind the
// session gateway, with mixed authentication and key-exchange traffic
// running the whole time.  Mid-traffic, the range [chip-3, chip-7)
// migrates to a second serve instance whose first migration connection is
// killed after ~1.5 KB — a target crash mid-snapshot — and, after the
// cutover commits, the source is killed -9 (server torn down, registry
// abandoned without Close) and resurrected from its WAL.  The test asserts
// the rebalancing contract end to end:
//
//   - devices never see a terminal failure caused by the migration: the
//     fence surfaces as retryable `migrating`, departure as retryable
//     `moved` with a redirect the gateway follows, and the kill windows as
//     retryable transport errors;
//   - the issuance fence — the only pause a migration imposes — stays
//     under 500 ms despite the live traffic it has to drain;
//   - the resurrected source knows from its journal that the range
//     departed, and redirects rather than issues;
//   - the Fig 7 never-reuse invariant holds across the entire history —
//     both source incarnations and the target, auth and keyex burns alike
//     — checked twice: from the devices' own logs of every challenge that
//     reached them, and offline from the WAL journals the processes left
//     behind, the same audit `puflab rebalance audit` runs.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"xorpuf/internal/core"
	"xorpuf/internal/keyex"
	"xorpuf/internal/netauth"
	"xorpuf/internal/registry"
	"xorpuf/internal/registry/fleet"
	"xorpuf/internal/registry/rebalance"
	"xorpuf/internal/silicon"
)

const (
	rebChips      = 12
	rebXOR        = 2
	rebFleetSeed  = 909
	rebRegSeed    = 31
	rebPerSession = 8
	// Lexicographic range bounds: chips 3..6 migrate (chip-10 and chip-11
	// sort before chip-3, so they stay put).
	rebLo = "chip-3"
	rebHi = "chip-7"
)

func rebChipID(i int) string { return fmt.Sprintf("chip-%d", i) }

func rebMigrated(i int) bool { return i >= 3 && i <= 6 }

// firstConnKiller dooms the first accepted connection to die after a small
// byte budget — the target crashing mid-snapshot on the opening migration
// attempt — and passes every later connection through untouched.
type firstConnKiller struct {
	net.Listener
	mu sync.Mutex
	n  int
}

func (l *firstConnKiller) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.n++
	first := l.n == 1
	l.mu.Unlock()
	if first {
		return &killConn{Conn: conn, budget: 1500}, nil
	}
	return conn, nil
}

func TestRebalanceSoakZeroDowntimeMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("rebalance soak skipped in -short mode")
	}
	kcfg := keyex.Config{M: 7, T: 10}
	// Auto-compaction stays off so the closing WAL audit sees the full
	// journal history instead of a snapshot cut.
	openReg := func(dir string) *registry.Registry {
		reg, err := registry.Open(dir, registry.Options{Seed: rebRegSeed, SnapshotEvery: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	srcDir, dstDir := t.TempDir(), t.TempDir()
	srcReg := openReg(srcDir)
	rep, err := fleet.Run(fleet.Config{
		Chips: rebChips, Workers: 4, XORWidth: rebXOR,
		Seed: rebFleetSeed, Enroll: soakEnroll(),
	}, srcReg)
	if err != nil || rep.Enrolled != rebChips {
		t.Fatalf("fleet enrollment: %+v, %v", rep, err)
	}
	dstReg := openReg(dstDir)
	defer dstReg.Close()

	serve := func(reg *registry.Registry, ln net.Listener) *netauth.Server {
		srv := netauth.NewServerWithRegistry(rebPerSession, rebRegSeed, reg)
		if err := srv.SetKeyExchange(kcfg); err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln) //nolint:errcheck
		return srv
	}
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	// ln1a serves the source's first incarnation; ln1b is pre-bound for its
	// post-kill resurrection so the gateway's shard list is fixed up front.
	ln1a, ln1b, lnDst := listen(), listen(), listen()
	srv1a := serve(srcReg, ln1a)
	srvDst := serve(dstReg, lnDst)
	defer srvDst.Close()

	gw, err := netauth.NewGateway([]netauth.GatewayShard{
		{Name: "shard-0", Addrs: []string{ln1a.Addr().String(), ln1b.Addr().String()}},
	}, netauth.GatewayConfig{DialTimeout: time.Second, Cooldown: 50 * time.Millisecond,
		MaxCooldown: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	gwLn := listen()
	go gw.Serve(gwLn) //nolint:errcheck
	defer gw.Close()
	gwAddr := gwLn.Addr().String()

	// The migration listener, with the target's first session doomed.
	lnMig := listen()
	acc := rebalance.NewAcceptor(dstReg, &firstConnKiller{Listener: lnMig},
		rebalance.AcceptorConfig{SessionTimeout: 10 * time.Second})
	defer acc.Close()

	// Devices record every challenge word they are ever asked to read.
	var seenMu sync.Mutex
	seen := make([]map[uint64]int, rebChips)
	devices := make([]core.Device, rebChips)
	for i := range devices {
		seen[i] = make(map[uint64]int)
		devices[i] = recordingDevice{
			inner: fleet.Chip(rebFleetSeed, i, silicon.DefaultParams(), rebXOR),
			mu:    &seenMu, seen: seen[i],
		}
	}

	// Mixed traffic: three auth sessions to each key exchange, all through
	// the gateway.  Terminal failures — anything not worth retrying — are
	// collected and must be zero: migration only ever surfaces retryable
	// states to devices.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var statMu sync.Mutex
	approvals, transients, retried := 0, 0, 0
	var terminal []string
	account := func(desc string, err error, approved bool, attempts int) {
		statMu.Lock()
		defer statMu.Unlock()
		if attempts > 1 {
			retried++
		}
		switch {
		case err == nil && approved:
			approvals++
		case err == nil:
			terminal = append(terminal, desc+": denied")
		case netauth.Transient(err):
			transients++
		default:
			terminal = append(terminal, fmt.Sprintf("%s: %v", desc, err))
		}
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (w + j*4) % rebChips
				id := rebChipID(i)
				if j%4 == 3 {
					c := &netauth.V2Client{Addr: gwAddr, ChipID: id, Device: devices[i],
						Cond: silicon.Nominal, Timeout: 5 * time.Second}
					ss, err := c.Establish(context.Background())
					if err == nil {
						res, aerr := ss.Authenticate()
						_ = ss.Close()
						account("keyex-auth "+id, aerr, res.Approved, res.Attempts)
					} else {
						account("keyex "+id, err, false, 1)
					}
				} else {
					res, err := authOnce(gwAddr, id, devices[i], silicon.Nominal, 5*time.Second)
					account("auth "+id, err, res.Approved, res.Attempts)
				}
				time.Sleep(time.Millisecond)
			}
		}(w)
	}
	awaitApprovals := func(want int, phase string) {
		deadline := time.Now().Add(60 * time.Second)
		for {
			statMu.Lock()
			n := approvals
			statMu.Unlock()
			if n >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: only %d approvals after 60s", phase, n)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	awaitApprovals(2*rebChips, "pre-migration traffic")

	// --- Migrate [chip-3, chip-7) under live load.  The first attempt dies
	// mid-snapshot (the killer listener); Wait rides the retries through.
	src, err := rebalance.StartSource(srcReg, rebalance.SourceConfig{
		MigrationID: "reb-soak",
		Lo:          rebLo, Hi: rebHi,
		TargetAddr:   lnMig.Addr().String(),
		Redirect:     lnDst.Addr().String(),
		AckTimeout:   5 * time.Second,
		RetryBackoff: 20 * time.Millisecond,
		QueueSize:    8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Wait(); err != nil {
		t.Fatalf("migration failed: %v (status %+v)", err, src.Status())
	}
	st := src.Status()
	if st.Chips != 4 {
		t.Fatalf("migrated %d chips, want 4", st.Chips)
	}
	if st.Restarts < 1 {
		t.Fatal("migration never restarted — the mid-stream target kill did not bite")
	}
	if st.FenceMillis >= 500 {
		t.Fatalf("fence window %dms, want < 500ms", st.FenceMillis)
	}
	t.Logf("migration done: %d chips, %d delta records, %d restarts, fence %dms, epoch %d",
		st.Chips, st.DeltaRecords, st.Restarts, st.FenceMillis, st.Epoch)

	// A direct dial at the source gets the structured redirect, never an
	// issuance; the gateway follows the same redirect transparently.
	_, err = authOnce(ln1a.Addr().String(), rebChipID(3), devices[3], silicon.Nominal, 5*time.Second)
	var perr *netauth.ProtocolError
	if !errors.As(err, &perr) || perr.Code != netauth.CodeMoved || !perr.Retryable ||
		perr.Redirect != lnDst.Addr().String() {
		t.Fatalf("direct dial post-cutover = %v, want retryable %s redirecting to the target", err, netauth.CodeMoved)
	}
	statMu.Lock()
	mark := approvals
	statMu.Unlock()
	awaitApprovals(mark+2*rebChips, "post-cutover traffic")

	// --- Kill -9 the source post-cutover: server down, registry abandoned
	// without Close.  Traffic rides retryable errors while the shard is
	// dark, then the resurrection on ln1b picks it back up.
	srv1a.Close()
	// srcReg is deliberately NOT closed: the source process is dead.  Hold
	// the shard dark long enough for live sessions to hit it and prove the
	// outage surfaces as retryable busy errors, not terminal failures.
	time.Sleep(300 * time.Millisecond)

	srcReg2 := openReg(srcDir)
	defer srcReg2.Close()
	if st, redirect := srcReg2.Ownership(rebChipID(4)); st != registry.OwnershipDeparted ||
		redirect != lnDst.Addr().String() {
		t.Fatalf("resurrected source: chip-4 ownership %v → %q, want departed → target", st, redirect)
	}
	if srcReg2.Lookup(rebChipID(5)) != nil {
		t.Fatal("resurrected source still holds a migrated chip")
	}
	srv1b := serve(srcReg2, ln1b)
	defer srv1b.Close()

	statMu.Lock()
	mark = approvals
	statMu.Unlock()
	awaitApprovals(mark+2*rebChips, "post-resurrection traffic")

	close(stop)
	wg.Wait()

	// --- Sweep: every chip still authenticates at zero HD through the same
	// gateway address, served by whichever side now owns it.
	for i := 0; i < rebChips; i++ {
		res, err := authOnce(gwAddr, rebChipID(i), devices[i], silicon.Nominal, 10*time.Second)
		if err != nil || !res.Approved || res.Mismatches != 0 {
			t.Fatalf("final sweep %s: %+v, %v — want zero-HD approval", rebChipID(i), res, err)
		}
	}
	for i := 3; i <= 6; i++ {
		if got := srvDst.ChipStatus(rebChipID(i)).Issued; got == 0 {
			t.Fatalf("%s approved but the new owner never issued — traffic still on the corpse", rebChipID(i))
		}
	}

	// --- Zero terminally-failed sessions from the migration.
	statMu.Lock()
	if len(terminal) > 0 {
		t.Fatalf("%d terminal session failures, want 0; first: %s", len(terminal), terminal[0])
	}
	finalApprovals, finalTransients, finalRetried := approvals, transients, retried
	statMu.Unlock()

	// --- Audit one: the devices' own logs.  No challenge word ever reached
	// any device twice, across both source incarnations and the target.
	seenMu.Lock()
	distinct := 0
	for i, m := range seen {
		for word, n := range m {
			distinct++
			if n > 1 {
				t.Errorf("%s: challenge %#x issued %d times across the migration", rebChipID(i), word, n)
			}
		}
	}
	seenMu.Unlock()

	// --- Audit two: the journals, exactly as `puflab rebalance audit`
	// replays them offline.  Fresh issuance claims a (chip, word) pair once
	// across all files; the target's migrated-burn copies must land on
	// pairs some journal issued fresh.
	fresh := map[string]map[uint64]bool{}
	var migCopies [][2]interface{}
	records := 0
	for _, dir := range []string{srcDir, dstDir} {
		err := registry.IterateWAL(filepath.Join(dir, "registry.wal"),
			func(seq uint64, typ byte, payload []byte) error {
				records++
				id, words, isFresh, ok := registry.RecordIssuedWords(typ, payload)
				if !ok {
					return nil
				}
				if !isFresh {
					for _, w := range words {
						migCopies = append(migCopies, [2]interface{}{id, w})
					}
					return nil
				}
				if fresh[id] == nil {
					fresh[id] = map[uint64]bool{}
				}
				for _, w := range words {
					if fresh[id][w] {
						t.Errorf("WAL audit: chip %s word %#x freshly issued twice", id, w)
					}
					fresh[id][w] = true
				}
				return nil
			})
		if err != nil {
			t.Fatalf("WAL audit over %s: %v", dir, err)
		}
	}
	for _, c := range migCopies {
		id, w := c[0].(string), c[1].(uint64)
		if !fresh[id][w] {
			t.Errorf("WAL audit: chip %s word %#x migrated but never freshly issued — lost history", id, w)
		}
	}
	if records == 0 {
		t.Fatal("WAL audit replayed nothing")
	}
	t.Logf("soak done: %d approvals, %d retryable errors, %d retried sessions, 0 terminal; audit: %d device-side challenges, %d WAL records, %d migrated copies",
		finalApprovals, finalTransients, finalRetried, distinct, records, len(migCopies))
}
