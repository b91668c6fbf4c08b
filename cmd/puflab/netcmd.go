// serve/auth: run the Fig 7 authentication protocol over real TCP, with
// the resilience layer (retries, throttling, lockout, challenge budgets)
// and optional deterministic fault injection on either side of the link.
//
// The device fleet is simulated: `serve` fabricates and enrolls -chips
// chips derived from -seed, registering them as chip-0, chip-1, …; `auth`
// re-derives the same silicon from the same seed, so a client started with
// matching -seed/-xor flags is the genuine device and one started with
// -impostor is a counterfeit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xorpuf/internal/faultnet"
	"xorpuf/internal/keyex"
	"xorpuf/internal/netauth"
	"xorpuf/internal/node"
	"xorpuf/internal/registry/fleet"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
	"xorpuf/internal/telemetry/dtrace"
)

// faultFlags binds the shared fault-injection knobs to c.
func faultFlags(fs *flag.FlagSet, c *faultnet.Config) {
	fs.Uint64Var(&c.Seed, "fault-seed", 1, "fault-injection rng seed")
	fs.Float64Var(&c.ResetProb, "fault-reset", 0, "probability of an injected connection reset per I/O op")
	fs.Float64Var(&c.CorruptProb, "fault-corrupt", 0, "probability of one corrupted byte per write")
	fs.Float64Var(&c.StallProb, "fault-stall", 0, "probability of a stalled I/O op")
	fs.DurationVar(&c.Stall, "fault-stall-for", 500*time.Millisecond, "stall duration")
	fs.Float64Var(&c.PartialWriteProb, "fault-partial", 0, "probability of a partial write followed by a reset")
	fs.DurationVar(&c.MaxLatency, "fault-latency", 0, "max uniform latency added per I/O op")
}

// device re-derives chip i's silicon from the fleet seed, exactly as serve
// enrolled it; an impostor presents counterfeit silicon from an unrelated
// stream.
func device(seed uint64, i, xorWidth int, impostor bool) *silicon.Chip {
	if impostor {
		return silicon.NewChip(rng.New(^seed).Fork("counterfeit", i), silicon.DefaultParams(), xorWidth)
	}
	return fleet.Chip(seed, i, silicon.DefaultParams(), xorWidth)
}

func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var cfg node.Config
	fs.StringVar(&cfg.Addr, "addr", "127.0.0.1:7410", "listen address")
	fs.IntVar(&cfg.Chips, "chips", 2, "number of simulated chips to enroll and register (0 = none; e.g. a migration target)")
	fs.IntVar(&cfg.XOR, "xor", 6, "XOR width of each chip")
	fs.IntVar(&cfg.N, "n", 100, "challenges per authentication")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "simulation seed (must match the auth side)")
	fs.DurationVar(&cfg.Timeout, "timeout", 10*time.Second, "per-message I/O deadline")
	fs.DurationVar(&cfg.Drain, "drain", 5*time.Second, "graceful-shutdown drain deadline")
	fs.IntVar(&cfg.MaxConns, "maxconns", 0, "concurrent session cap (0 = unlimited)")
	fs.IntVar(&cfg.Lockout, "lockout", 5, "consecutive denials before a chip is locked out (0 = off)")
	fs.DurationVar(&cfg.Throttle, "throttle", 0, "minimum interval between attempts per chip (0 = off)")
	fs.IntVar(&cfg.Budget, "budget", 0, "lifetime challenge budget per chip (0 = unlimited)")
	keyexOn := fs.Bool("keyex", false, "enable the reverse fuzzy-extractor key exchange (encrypted sessions)")
	keyexM := fs.Int("keyex-m", 8, "key exchange BCH field degree m (code length 2^m−1 challenges per derivation)")
	keyexT := fs.Int("keyex-t", 12, "key exchange BCH correction capability t")
	fs.StringVar(&cfg.State, "state", "", "registry state directory (empty = in-memory; set to survive restarts)")
	fs.StringVar(&cfg.Admin, "admin", "", "admin HTTP address serving /metrics, /healthz, /traces, /debug/pprof (empty = off)")
	fs.IntVar(&cfg.Workers, "workers", 0, "enrollment worker-pool size (0 = GOMAXPROCS)")
	fs.BoolVar(&cfg.AutoReenroll, "auto-reenroll", false, "automatically re-enroll chips the drift detectors quarantine")
	fs.DurationVar(&cfg.Sample, "sample", 2*time.Second, "telemetry sampling / SLO evaluation interval (0 = SLO plane off)")
	fs.BoolVar(&cfg.AttackLockout, "attack-lockout", false, "force-lock any chip whose suspected-modeling-attack alert fires")
	fs.StringVar(&cfg.Primary, "primary", "", "replication listen address: serve as a replication primary for followers")
	fs.StringVar(&cfg.Follower, "follower", "", "primary's replication address: replicate instead of serving (auth starts on promotion)")
	fs.IntVar(&cfg.ReplQuorum, "repl-quorum", 1, "follower acks required before an issued challenge leaves the server (with -primary)")
	fs.BoolVar(&cfg.ReplStrict, "repl-strict", false, "fail issuance when the quorum cannot ack, instead of degrading to async (with -primary)")
	fs.BoolVar(&cfg.ReplFault, "repl-fault", false, "apply the -fault-* chaos knobs to the replication link instead of the auth port")
	fs.StringVar(&cfg.MigrateListen, "migrate-listen", "", "listen address for inbound chip-range migrations (empty = off; see \"puflab rebalance\")")
	faultFlags(fs, &cfg.Fault)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *keyexOn {
		cfg.KeyEx = &keyex.Config{M: *keyexM, T: *keyexT}
	}

	nd, err := node.Start(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "puflab serve: %v\n", err)
		var cerr *node.ConfigError
		if errors.As(err, &cerr) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("\n%v: draining in-flight sessions (signal again to force exit)…\n", s)
		go func() {
			<-sig
			// A second signal abandons the drain; the WAL makes this safe —
			// recovery replays it, exactly like a kill -9.
			fmt.Fprintln(os.Stderr, "puflab serve: forced exit; state recovers from the WAL")
			os.Exit(1)
		}()
	case err := <-nd.Done():
		if err != nil {
			fmt.Fprintf(os.Stderr, "puflab serve: %v\n", err)
			os.Exit(1)
		}
	}
	if err := nd.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "puflab serve: %v\n", err)
		os.Exit(1)
	}
}

func runAuth(args []string) {
	fs := flag.NewFlagSet("auth", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7410", "server address")
	chipIdx := fs.Int("chip", 0, "chip index (authenticates as chip-<index>)")
	xorWidth := fs.Int("xor", 6, "XOR width (must match the serve side)")
	seed := fs.Uint64("seed", 1, "simulation seed (must match the serve side)")
	impostor := fs.Bool("impostor", false, "present counterfeit silicon for the chip ID")
	sessions := fs.Int("sessions", 1, "number of authentication sessions to run")
	timeout := fs.Duration("timeout", 5*time.Second, "per-message I/O deadline")
	attempts := fs.Int("attempts", 4, "retry budget per session (including the first try)")
	baseDelay := fs.Duration("base-delay", 50*time.Millisecond, "initial retry backoff")
	maxDelay := fs.Duration("max-delay", 2*time.Second, "retry backoff cap")
	vdd := fs.Float64("vdd", silicon.Nominal.VDD, "supply voltage the device is read at")
	tempC := fs.Float64("temp", silicon.Nominal.TempC, "temperature (°C) the device is read at")
	encrypt := fs.Bool("encrypt", false, "establish a PUF-derived session key first and authenticate inside the encrypted channel (server must run -keyex)")
	batch := fs.Int("batch", 1, "sessions pipelined per round trip over the persistent connection (ignored with -encrypt)")
	traced := fs.Bool("trace", false, "mint a distributed-trace context, propagate it to the server, and print the trace ID")
	var fault faultnet.Config
	faultFlags(fs, &fault)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	chip := device(*seed, *chipIdx, *xorWidth, *impostor)
	policy := netauth.RetryPolicy{
		MaxAttempts: *attempts,
		BaseDelay:   *baseDelay,
		MaxDelay:    *maxDelay,
		Multiplier:  2,
		Jitter:      0.5,
	}
	client := &netauth.V2Client{
		Addr:    *addr,
		ChipID:  fmt.Sprintf("chip-%d", *chipIdx),
		Device:  chip,
		Cond:    silicon.Condition{VDD: *vdd, TempC: *tempC},
		Timeout: *timeout,
		Policy:  policy,
	}
	defer client.Close()
	if *traced {
		// The device is the trace root: every server-side span nests under
		// this context, and the printed ID is what `puflab trace show`
		// takes.  All -sessions share one trace — each session is a
		// separate subtree under it.
		tc := dtrace.Context{Trace: dtrace.NewTraceID(), Span: dtrace.NewSpanID()}
		client.Trace = tc.String()
		fmt.Printf("trace ID: %s\n", tc.Trace)
	}
	if fault.Injects() {
		client.DialContext = faultnet.NewDialer(fault).DialContext
		fmt.Printf("fault injection active: %+v\n", fault)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if !*encrypt && *batch > 1 {
		runAuthBatched(ctx, client, *sessions, *batch)
		return
	}

	exitCode := 0
	for i := 0; i < *sessions; i++ {
		start := time.Now()
		var res netauth.Result
		var err error
		if *encrypt {
			var ss *netauth.SecureSession
			ss, err = client.Establish(ctx)
			if err == nil {
				fmt.Printf("session %d: key established (%s, %d challenges, %d bits corrected)\n",
					i+1, ss.Result.Cipher, ss.Result.Challenges, ss.Result.Corrected)
				res, err = ss.Authenticate()
				_ = ss.Close()
			}
		} else {
			res, err = client.Authenticate(ctx)
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		switch {
		case err != nil:
			kind := "terminal"
			if netauth.Transient(err) {
				kind = "retry budget exhausted"
			}
			fmt.Printf("session %d: FAILED (%s) after %d attempt(s) in %v: %v\n",
				i+1, kind, res.Attempts, elapsed, err)
			exitCode = 1
			if !netauth.Transient(err) {
				os.Exit(1)
			}
		case res.Approved:
			fmt.Printf("session %d: APPROVED (%d/%d mismatches, %d attempt(s), %v)\n",
				i+1, res.Mismatches, res.Challenges, res.Attempts, elapsed)
		default:
			fmt.Printf("session %d: DENIED (%d/%d mismatches, %d attempt(s), %v)\n",
				i+1, res.Mismatches, res.Challenges, res.Attempts, elapsed)
			exitCode = 1
		}
	}
	os.Exit(exitCode)
}

// runAuthBatched drives the pipelined arm of `puflab auth`: batches of
// sessions multiplexed over one persistent connection, reporting
// aggregate throughput instead of per-session latency.
func runAuthBatched(ctx context.Context, c *netauth.V2Client, sessions, batch int) {
	exitCode := 0
	approved, denied := 0, 0
	start := time.Now()
	for done := 0; done < sessions; {
		k := batch
		if rem := sessions - done; rem < k {
			k = rem
		}
		results, err := c.AuthenticateBatch(ctx, k)
		if err != nil {
			kind := "terminal"
			if netauth.Transient(err) {
				kind = "retry budget exhausted"
			}
			fmt.Printf("batch of %d (after %d sessions): FAILED (%s): %v\n", k, done, kind, err)
			os.Exit(1)
		}
		for _, res := range results {
			done++
			if res.Approved {
				approved++
			} else {
				denied++
				fmt.Printf("session %d: DENIED (%d/%d mismatches)\n",
					done, res.Mismatches, res.Challenges)
				exitCode = 1
			}
		}
	}
	elapsed := time.Since(start)
	rate := float64(approved+denied) / elapsed.Seconds()
	fmt.Printf("%d sessions in batches of %d: %d approved, %d denied in %v (%.0f sessions/sec)\n",
		sessions, batch, approved, denied, elapsed.Round(time.Millisecond), rate)
	os.Exit(exitCode)
}
