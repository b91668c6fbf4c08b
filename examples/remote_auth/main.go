// Remote authentication: the paper's server/chip split over a real TCP
// connection — the verification server holds only the model database; the
// device side holds the chip and answers freshly selected challenges with
// one-shot XOR reads.
//
// This example runs the hardened deployment: the link is deliberately
// unreliable (seeded faultnet injection of resets, stalls, and byte
// corruption), the device rides out the faults with a retrying client, and
// the server enforces the abuse controls — per-chip lockout after
// consecutive denials and a lifetime challenge budget.
//
//	go run ./examples/remote_auth
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"time"

	"xorpuf"
	"xorpuf/internal/faultnet"
	"xorpuf/internal/netauth"
)

func main() {
	// Enrollment facility: fabricate and enroll the chip, then hand the
	// model to the server and the chip to the device.
	params := xorpuf.DefaultParams()
	chip := xorpuf.NewChip(31337, params, 6)
	cfg := xorpuf.DefaultEnrollConfig()
	cfg.Conditions = xorpuf.Corners()
	cfg.BlowFuses = true
	enr, err := xorpuf.Enroll(chip, 8, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("enrolled 6-XOR chip (β0=%.2f β1=%.2f), fuses blown\n",
		enr.Model.Beta0, enr.Model.Beta1)

	// Verification server with the resilience controls switched on: three
	// consecutive denials quarantine a chip, and each chip may burn at
	// most 5,000 challenges over its lifetime.
	srv := netauth.NewServer(100, 99)
	srv.SetTimeout(300 * time.Millisecond) // per message, not per connection
	srv.SetLockout(3)
	srv.SetChallengeBudget(5000)
	if err := srv.Register("device-0042", enr.Model); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	// The server reads from a hostile network: 6 % of I/O ops reset the
	// connection, 6 % stall past the message deadline, and 6 % of writes
	// corrupt a byte.  Seeded, so every run injects the same faults.
	fln := faultnet.WrapListener(ln, faultnet.Config{
		Seed:        2024,
		ResetProb:   0.06,
		StallProb:   0.06,
		Stall:       500 * time.Millisecond,
		CorruptProb: 0.06,
	})
	go srv.Serve(fln) //nolint:errcheck
	defer srv.Close()
	fmt.Printf("verification server listening on %s (faulty link)\n\n", ln.Addr())

	// Genuine device authenticates from several operating corners over one
	// persistent connection, retrying transient faults with jittered
	// exponential backoff.
	client := &netauth.V2Client{
		Addr:    ln.Addr().String(),
		ChipID:  "device-0042",
		Device:  chip,
		Timeout: 300 * time.Millisecond,
		Policy: netauth.RetryPolicy{
			MaxAttempts: 8,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    200 * time.Millisecond,
			Multiplier:  2,
			Jitter:      0.5,
		},
	}
	defer client.Close()
	for _, cond := range []xorpuf.Condition{
		xorpuf.Nominal,
		{VDD: 0.8, TempC: 0},
		{VDD: 1.0, TempC: 60},
	} {
		client.Cond = cond
		res, err := client.Authenticate(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("genuine device at %-12s → approved=%v (%d/%d mismatches, %d attempt(s))\n",
			cond, res.Approved, res.Mismatches, res.Challenges, res.Attempts)
	}

	// A counterfeit device with its own silicon is denied, and after
	// three consecutive denials the server quarantines the chip ID: the
	// fourth attempt fails terminally without burning any challenges.
	counterfeit := xorpuf.NewChip(666, params, 6)
	fmt.Println()
	for i := 1; ; i++ {
		imp := &netauth.V2Client{
			Addr: ln.Addr().String(), ChipID: "device-0042",
			Device: counterfeit, Cond: xorpuf.Nominal,
			Timeout: 300 * time.Millisecond, Policy: client.Policy,
		}
		res, err := imp.Authenticate(context.Background())
		imp.Close()
		var pe *netauth.ProtocolError
		if errors.As(err, &pe) && pe.Code == netauth.CodeLockedOut {
			fmt.Printf("counterfeit attempt %d     → %v\n", i, err)
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("counterfeit attempt %d     → approved=%v (%d/%d mismatches)\n",
			i, res.Approved, res.Mismatches, res.Challenges)
	}
	st := srv.ChipStatus("device-0042")
	fmt.Printf("chip status: locked=%v, consecutive denials=%d, "+
		"challenges burned=%d (budget remaining %d)\n",
		st.Locked, st.ConsecutiveDenials, st.Issued, st.Remaining)

	// Note: a software clone built from the stolen *model database* would
	// succeed — the database, unlike the PUF, must be kept secret
	// (paper §1: the server stores delay parameters).
	approved, denied := srv.Stats()
	fmt.Printf("\nserver decision log: %d approved, %d denied\n", approved, denied)
}
