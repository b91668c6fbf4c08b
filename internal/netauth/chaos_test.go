package netauth

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"xorpuf/internal/core"
	"xorpuf/internal/faultnet"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
)

// TestChaosAuthentication is the acceptance scenario for the resilience
// layer: 100 genuine sessions ride a faultnet transport injecting ≥5 %
// resets, corruptions, and stalls per I/O operation, and every session
// must end in a definite verdict or a terminal error — no hangs, no
// goroutine leaks.  Legitimate devices authenticate via retries; an
// attacker chip answering with the wrong silicon hits lockout after K
// consecutive denials and stops burning challenges.  Everything is seeded,
// so a failure replays exactly.
func TestChaosAuthentication(t *testing.T) {
	const (
		sessions   = 100
		challenges = 20
		lockoutK   = 3
		msgTimeout = 150 * time.Millisecond
	)
	baseline := runtime.NumGoroutine()

	chip := silicon.NewChip(rng.New(1), silicon.DefaultParams(), 4)
	cfg := core.DefaultEnrollConfig()
	cfg.TrainingSize = 2000
	cfg.ValidationSize = 5000
	enr, err := core.EnrollChip(chip, rng.New(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(challenges, 3)
	srv.SetTimeout(msgTimeout)
	srv.SetLockout(lockoutK)
	srv.SetDrainTimeout(time.Second)
	// Two identities over the same model: "legit" is driven by the real
	// chip, "victim" is targeted by an attacker with the wrong silicon.
	if err := srv.Register("legit", enr.Model); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("victim", enr.Model); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Stall (250 ms) deliberately exceeds the 150 ms per-message deadline
	// so a stalled operation genuinely kills its session rather than
	// merely slowing it.
	fln := faultnet.WrapListener(ln, faultnet.Config{
		Seed:        7,
		ResetProb:   0.05,
		StallProb:   0.05,
		Stall:       250 * time.Millisecond,
		CorruptProb: 0.06,
		MaxLatency:  3 * time.Millisecond,
	})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(fln) }()

	policy := RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.5,
	}
	approved, terminalErrs := 0, 0
	for i := 0; i < sessions; i++ {
		client := &V2Client{
			Addr: ln.Addr().String(), ChipID: "legit",
			Device: chip, Cond: silicon.Nominal,
			Timeout: msgTimeout, Policy: policy,
			Jitter: rng.New(uint64(1000 + i)),
		}
		// The outer deadline is the no-hang guarantee: a session that
		// neither resolves nor errors within it is a bug.
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		res, err := client.Authenticate(ctx)
		cancel()
		client.Close()
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			t.Fatalf("session %d hung past the outer deadline", i)
		case err != nil:
			terminalErrs++ // definite failure after the retry budget
		case res.Approved:
			approved++
		default:
			t.Fatalf("session %d: genuine device denied (%d mismatches) — "+
				"corruption leaked into a valid frame", i, res.Mismatches)
		}
	}
	if approved < sessions*9/10 {
		t.Errorf("only %d/%d genuine sessions approved (%d terminal errors) — "+
			"retries are not riding out the fault rates", approved, sessions, terminalErrs)
	}
	t.Logf("genuine: %d approved, %d terminal errors", approved, terminalErrs)

	// Attacker phase: wrong silicon for a registered identity.  Each
	// completed verdict is a denial; lockout must engage at K and freeze
	// the challenge budget.
	attacker := silicon.NewChip(rng.New(666), silicon.DefaultParams(), 4)
	var lockedOut bool
	deniedSeen := 0
	for i := 0; i < 30 && !lockedOut; i++ {
		client := &V2Client{
			Addr: ln.Addr().String(), ChipID: "victim",
			Device: attacker, Cond: silicon.Nominal,
			Timeout: msgTimeout, Policy: policy,
			Jitter: rng.New(uint64(2000 + i)),
		}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		res, err := client.Authenticate(ctx)
		cancel()
		client.Close()
		var pe *ProtocolError
		switch {
		case errors.As(err, &pe) && pe.Code == CodeLockedOut:
			lockedOut = true
		case err != nil:
			// Retry budget exhausted under faults; try again.
		case res.Approved:
			t.Fatal("attacker chip approved")
		default:
			deniedSeen++
		}
	}
	if !lockedOut {
		t.Fatal("attacker never hit lockout")
	}
	if deniedSeen > lockoutK {
		t.Errorf("attacker saw %d denial verdicts before lockout, want ≤ %d", deniedSeen, lockoutK)
	}
	st := srv.ChipStatus("victim")
	if !st.Locked || st.ConsecutiveDenials != lockoutK {
		t.Errorf("victim status %+v, want locked after exactly %d consecutive denials", st, lockoutK)
	}
	burned := st.Issued
	// A locked chip must not leak further CRPs.
	client := &V2Client{
		Addr: ln.Addr().String(), ChipID: "victim",
		Device: attacker, Cond: silicon.Nominal,
		Timeout: msgTimeout, Policy: policy,
		Jitter: rng.New(3000),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	_, err = client.Authenticate(ctx)
	cancel()
	client.Close()
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != CodeLockedOut {
		t.Errorf("locked victim err = %v, want locked_out", err)
	}
	if got := srv.ChipStatus("victim").Issued; got != burned {
		t.Errorf("locked chip still burning challenges: %d → %d", burned, got)
	}

	srv.Close()
	if err := <-serveDone; err != nil {
		t.Errorf("Serve: %v", err)
	}
	waitGoroutines(t, baseline)
}
