// keyex: establish PUF-derived session keys against a serve instance
// running with -keyex, then exercise the encrypted channel — an
// authentication inside it and an integrity-checked payload — before
// tearing the session down.  The device side is the same simulated silicon
// as `auth`: matching -seed/-xor is the genuine chip, -impostor is a
// counterfeit that cannot reproduce the key.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xorpuf/internal/faultnet"
	"xorpuf/internal/netauth"
	"xorpuf/internal/silicon"
)

func runKeyex(args []string) {
	fs := flag.NewFlagSet("keyex", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7410", "server address")
	chipIdx := fs.Int("chip", 0, "chip index (establishes as chip-<index>)")
	xorWidth := fs.Int("xor", 6, "XOR width (must match the serve side)")
	seed := fs.Uint64("seed", 1, "simulation seed (must match the serve side)")
	impostor := fs.Bool("impostor", false, "present counterfeit silicon for the chip ID")
	sessions := fs.Int("sessions", 1, "number of key-exchange sessions to run")
	timeout := fs.Duration("timeout", 10*time.Second, "per-message I/O deadline")
	vdd := fs.Float64("vdd", silicon.Nominal.VDD, "supply voltage the device is read at")
	tempC := fs.Float64("temp", silicon.Nominal.TempC, "temperature (°C) the device is read at")
	payload := fs.Int("payload", 1024, "bytes of application payload to ship over the channel (0 = none)")
	skipAuth := fs.Bool("no-auth", false, "skip the authentication exchange inside the channel")
	var fault faultnet.Config
	faultFlags(fs, &fault)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	dev := device(*seed, *chipIdx, *xorWidth, *impostor)
	cond := silicon.Condition{VDD: *vdd, TempC: *tempC}
	chipID := fmt.Sprintf("chip-%d", *chipIdx)
	client := &netauth.V2Client{
		Addr:    *addr,
		ChipID:  chipID,
		Device:  dev,
		Cond:    cond,
		Timeout: *timeout,
	}
	if fault.Injects() {
		client.DialContext = faultnet.NewDialer(fault).DialContext
		fmt.Printf("fault injection active: %+v\n", fault)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	exitCode := 0
	for i := 0; i < *sessions; i++ {
		start := time.Now()
		ss, err := client.Establish(ctx)
		if err != nil {
			kind := "transient"
			if !netauth.Transient(err) {
				kind = "terminal"
			}
			fmt.Printf("session %d: FAILED (%s) in %v: %v\n",
				i+1, kind, time.Since(start).Round(time.Millisecond), err)
			exitCode = 1
			if !netauth.Transient(err) {
				os.Exit(1)
			}
			continue
		}
		fmt.Printf("session %d: KEY ESTABLISHED %s (cipher=%s, %d challenges burned, %d bits corrected, %v)\n",
			i+1, ss.Result.Session, ss.Result.Cipher, ss.Result.Challenges,
			ss.Result.Corrected, time.Since(start).Round(time.Millisecond))

		if !*skipAuth {
			res, err := ss.Authenticate()
			switch {
			case err != nil:
				fmt.Printf("session %d: encrypted auth FAILED: %v\n", i+1, err)
				exitCode = 1
			case res.Approved:
				fmt.Printf("session %d: encrypted auth APPROVED (%d/%d mismatches)\n",
					i+1, res.Mismatches, res.Challenges)
			default:
				fmt.Printf("session %d: encrypted auth DENIED (%d/%d mismatches)\n",
					i+1, res.Mismatches, res.Challenges)
				exitCode = 1
			}
		}
		if *payload > 0 {
			data := make([]byte, *payload)
			for j := range data {
				data[j] = byte(j)
			}
			pStart := time.Now()
			if err := ss.SendPayload(data); err != nil {
				fmt.Printf("session %d: payload FAILED: %v\n", i+1, err)
				exitCode = 1
			} else {
				fmt.Printf("session %d: %d-byte payload acknowledged with matching digest in %v\n",
					i+1, *payload, time.Since(pStart).Round(time.Millisecond))
			}
		}
		if err := ss.Close(); err != nil {
			fmt.Printf("session %d: close: %v\n", i+1, err)
		}
	}
	os.Exit(exitCode)
}
