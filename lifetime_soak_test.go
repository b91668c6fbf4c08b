package xorpuf_test

// Lifetime soak: the acceptance test for the lifetime-reliability loop.  A
// 100-chip fleet is enrolled into a persistent registry and served over real
// TCP; a subset of "victim" chips is then driven through a multi-epoch
// stress profile (voltage droops, temperature ramps, cumulative aging) while
// the whole fleet keeps authenticating.  The test asserts the full loop:
//
//   - the drift detectors quarantine every victim, and no victim is ever
//     accepted at zero HD while drifted (the threshold is never loosened);
//   - quarantined denials are structured, terminal, and burn no challenges;
//   - health state and the burned-challenge history survive a mid-epoch
//     kill -9 (registry abandoned without Close) and server restart;
//   - the automatic re-enrollment pipeline re-measures the aged silicon,
//     refits, swaps the registry entry, and every victim authenticates at
//     zero HD again;
//   - healthy chips see the same stress conditions and produce a
//     false-quarantine rate below 1 %.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"xorpuf/internal/core"
	"xorpuf/internal/health"
	"xorpuf/internal/netauth"
	"xorpuf/internal/registry"
	"xorpuf/internal/registry/fleet"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
)

const (
	soakChips      = 100
	soakVictims    = 8 // chips 0..7 age hard; the rest stay pristine
	soakXOR        = 2
	soakFleetSeed  = 424
	soakRegSeed    = 17
	soakPerSession = 25
)

// soakAgingSeed gives each victim its own independent aging stream.
func soakAgingSeed(i int) uint64 { return 0xA6E<<16 | uint64(i) }

// soakEnroll is corner-hardened (the paper's Section 5.2 V/T hardening) so
// healthy chips stay zero-HD through droop and ramp steps, at a scale that
// keeps 100 enrollments fast.
func soakEnroll() core.EnrollConfig {
	cfg := core.DefaultEnrollConfig()
	cfg.TrainingSize = 300
	cfg.ValidationSize = 1200
	cfg.Conditions = silicon.Corners()
	return cfg
}

func TestLifetimeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("lifetime soak skipped in -short mode")
	}
	dir := t.TempDir()

	// --- Enrollment: 100 chips into a persistent registry. -----------------
	reg1, err := registry.Open(dir, registry.Options{Seed: soakRegSeed, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.Run(fleet.Config{
		Chips: soakChips, Workers: 4, XORWidth: soakXOR,
		Seed: soakFleetSeed, Enroll: soakEnroll(),
	}, reg1)
	if err != nil || rep.Enrolled != soakChips {
		t.Fatalf("fleet enrollment: %+v, %v", rep, err)
	}

	// Fielded devices.  Victims are aged in place as the profile advances;
	// the rest keep their factory silicon.
	devices := make([]*silicon.Chip, soakChips)
	for i := range devices {
		devices[i] = fleet.Chip(soakFleetSeed, i, silicon.DefaultParams(), soakXOR)
	}

	// Stress schedule: two epochs of heavy aging with droop and ramp
	// excursions.  DriftSigma 1.8 per epoch (vs ProcessSigma 1.0) is
	// end-of-life-grade wear: it decisively walks the victims out of their
	// enrolled models so detection converges in a handful of sessions.
	profile, err := silicon.NewStressProfile(rng.New(soakFleetSeed), silicon.StressConfig{
		Epochs: 2, DriftSigma: 1.8, DroopsPerEpoch: 1, RampsPerEpoch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Health transitions from both server incarnations land here.
	var evMu sync.Mutex
	var events []health.Event
	collect := func(ev health.Event) {
		evMu.Lock()
		events = append(events, ev)
		evMu.Unlock()
	}
	startServer := func(reg *registry.Registry) (*netauth.Server, string) {
		srv := netauth.NewServerWithRegistry(soakPerSession, soakRegSeed, reg)
		srv.SetHealthHandler(collect)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln) //nolint:errcheck
		return srv, ln.Addr().String()
	}
	srv, addr := startServer(reg1)

	chipID := func(i int) string { return fmt.Sprintf("chip-%d", i) }
	auth := func(i int, cond silicon.Condition) (netauth.Result, error) {
		return authOnce(addr, chipID(i), devices[i], cond, 10*time.Second)
	}

	// --- Baseline: the whole factory-fresh fleet is zero-HD. ---------------
	for i := 0; i < soakChips; i++ {
		res, err := auth(i, silicon.Nominal)
		if err != nil || !res.Approved {
			t.Fatalf("baseline auth %s: %+v, %v", chipID(i), res, err)
		}
	}

	// --- Deployment: stress steps with authentication traffic. -------------
	// Victims authenticate every step; healthy chips on every non-recovery
	// step (still well past the detectors' MinSessions warm-up).
	killAt := len(profile.Steps) / 2
	reg := reg1
	for step := 0; step < len(profile.Steps); step++ {
		var cond silicon.Condition
		for v := 0; v < soakVictims; v++ {
			cond = profile.ApplyStep(devices[v], soakAgingSeed(v), step)
		}
		for i := 0; i < soakChips; i++ {
			if i >= soakVictims && profile.Steps[step].Kind == silicon.StressNominal {
				continue
			}
			res, err := auth(i, cond)
			var perr *netauth.ProtocolError
			if errors.As(err, &perr) && perr.Code == netauth.CodeQuarantined {
				if i >= soakVictims {
					t.Fatalf("healthy %s refused as quarantined at step %d", chipID(i), step)
				}
				continue // victim already caught; denial is structured
			}
			if err != nil {
				t.Fatalf("step %d auth %s: %v", step, chipID(i), err)
			}
			// The acceptance criterion must never loosen: approval iff
			// zero mismatches, drifted or not.
			if res.Approved != (res.Mismatches == 0) {
				t.Fatalf("step %d %s: approved=%v with %d mismatches — zero-HD criterion violated",
					step, chipID(i), res.Approved, res.Mismatches)
			}
			if i >= soakVictims && !res.Approved {
				// A healthy chip may suffer an isolated upset; the
				// detectors tolerate it.  Log so flakiness is visible.
				t.Logf("healthy %s: %d/%d mismatches at %v (step %d)",
					chipID(i), res.Mismatches, res.Challenges, cond, step)
			}
		}

		// --- Mid-epoch kill -9: abandon the registry without Close. --------
		if step == killAt {
			type snap struct {
				health health.State
				issued int
			}
			pre := make(map[string]snap)
			for i := 0; i < soakChips; i++ {
				st := srv.ChipStatus(chipID(i))
				pre[chipID(i)] = snap{st.Health, st.Issued}
			}
			srv.Close()
			// reg1 is deliberately NOT closed: recovery must come from the
			// WAL alone, exactly as after a power cut.
			reg2, err := registry.Open(dir, registry.Options{Seed: soakRegSeed, SnapshotEvery: -1})
			if err != nil {
				t.Fatalf("recovery Open: %v", err)
			}
			reg = reg2
			srv, addr = startServer(reg2)
			for id, want := range pre {
				e := reg2.Lookup(id)
				if e == nil {
					t.Fatalf("%s lost in crash", id)
				}
				st := e.Status()
				if st.Health != want.health || st.Issued != want.issued {
					t.Fatalf("%s recovered as {%v, %d}, want {%v, %d}",
						id, st.Health, st.Issued, want.health, want.issued)
				}
			}
		}
	}
	defer reg.Close()
	defer srv.Close()

	// --- Detection: every victim must end up quarantined. -------------------
	for v := 0; v < soakVictims; v++ {
		for n := 0; n < 20 && reg.Lookup(chipID(v)).HealthState() != health.Quarantined; n++ {
			if _, err := auth(v, silicon.Nominal); err != nil {
				break // quarantined mid-loop
			}
		}
		if got := reg.Lookup(chipID(v)).HealthState(); got != health.Quarantined {
			t.Fatalf("victim %s ended %v, want quarantined (%+v)",
				chipID(v), got, reg.Lookup(chipID(v)).Status().HealthStats)
		}
	}

	// Quarantined denials burn no challenges.
	burnedBefore := srv.ChipStatus(chipID(0)).Issued
	_, err = auth(0, silicon.Nominal)
	var perr *netauth.ProtocolError
	if !errors.As(err, &perr) || perr.Code != netauth.CodeQuarantined || perr.Retryable {
		t.Fatalf("quarantined auth err = %v, want terminal %s", err, netauth.CodeQuarantined)
	}
	if got := srv.ChipStatus(chipID(0)).Issued; got != burnedBefore {
		t.Fatalf("quarantined attempt burned %d challenges", got-burnedBefore)
	}

	// False-quarantine rate on healthy chips: below 1 %.
	evMu.Lock()
	falseQuarantines := map[string]bool{}
	for _, ev := range events {
		var idx int
		fmt.Sscanf(ev.ChipID, "chip-%d", &idx) //nolint:errcheck
		if idx >= soakVictims && ev.To == health.Quarantined {
			falseQuarantines[ev.ChipID] = true
		}
	}
	quarantineEvents := events
	evMu.Unlock()
	healthyCount := soakChips - soakVictims
	if rate := float64(len(falseQuarantines)) / float64(healthyCount); rate >= 0.01 {
		t.Fatalf("false-quarantine rate %.3f (%d of %d healthy chips): %v",
			rate, len(falseQuarantines), healthyCount, falseQuarantines)
	}

	// --- Repair: the automatic pipeline re-enrolls every quarantined chip. --
	// The provider re-derives the fielded silicon: refabricate from the
	// fleet seed and replay the victim's full stress history.
	repair, err := fleet.NewReEnroller(reg, fleet.ReEnrollConfig{
		Seed: 7001, Enroll: soakEnroll(),
		Chip: func(id string) (*silicon.Chip, error) {
			var idx int
			if _, err := fmt.Sscanf(id, "chip-%d", &idx); err != nil {
				return nil, err
			}
			c := fleet.Chip(soakFleetSeed, idx, silicon.DefaultParams(), soakXOR)
			if idx < soakVictims {
				profile.Replay(c, soakAgingSeed(idx), len(profile.Steps))
			}
			return c, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	preIssued := make([]int, soakVictims)
	for v := 0; v < soakVictims; v++ {
		preIssued[v] = reg.Lookup(chipID(v)).Status().Issued
	}
	for _, ev := range quarantineEvents {
		repair.Handle(ev) // duplicates (degraded→quarantined, forced, …) dedup inside
	}
	repair.Wait()

	// --- Aftermath: the whole fleet, aged victims included, is zero-HD. -----
	for v := 0; v < soakVictims; v++ {
		st := reg.Lookup(chipID(v)).Status()
		if st.Health != health.Healthy {
			t.Fatalf("victim %s still %v after re-enrollment", chipID(v), st.Health)
		}
		if st.Issued < preIssued[v] {
			t.Fatalf("victim %s lost burned history: %d issued, had %d", chipID(v), st.Issued, preIssued[v])
		}
	}
	for i := 0; i < soakChips; i++ {
		res, err := auth(i, silicon.Nominal)
		if err != nil {
			t.Fatalf("final auth %s: %v", chipID(i), err)
		}
		if !res.Approved || res.Mismatches != 0 {
			t.Fatalf("final auth %s: %+v, want zero-HD approval", chipID(i), res)
		}
	}
}
