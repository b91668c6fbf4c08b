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
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"xorpuf/internal/core"
	"xorpuf/internal/faultnet"
	"xorpuf/internal/health"
	"xorpuf/internal/keyex"
	"xorpuf/internal/netauth"
	"xorpuf/internal/registry"
	"xorpuf/internal/registry/fleet"
	"xorpuf/internal/registry/rebalance"
	"xorpuf/internal/registry/repl"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
	"xorpuf/internal/telemetry"
	"xorpuf/internal/telemetry/dtrace"
	"xorpuf/internal/telemetry/history"
	"xorpuf/internal/telemetry/slo"
)

// faultFlags registers the shared fault-injection knobs and returns a
// loader that builds the config after flag parsing.
func faultFlags(fs *flag.FlagSet) func() faultnet.Config {
	seed := fs.Uint64("fault-seed", 1, "fault-injection rng seed")
	reset := fs.Float64("fault-reset", 0, "probability of an injected connection reset per I/O op")
	corrupt := fs.Float64("fault-corrupt", 0, "probability of one corrupted byte per write")
	stall := fs.Float64("fault-stall", 0, "probability of a stalled I/O op")
	stallFor := fs.Duration("fault-stall-for", 500*time.Millisecond, "stall duration")
	partial := fs.Float64("fault-partial", 0, "probability of a partial write followed by a reset")
	latency := fs.Duration("fault-latency", 0, "max uniform latency added per I/O op")
	return func() faultnet.Config {
		return faultnet.Config{
			Seed:             *seed,
			ResetProb:        *reset,
			CorruptProb:      *corrupt,
			StallProb:        *stall,
			Stall:            *stallFor,
			PartialWriteProb: *partial,
			MaxLatency:       *latency,
		}
	}
}

func (c netConfig) chip(i int, impostor bool) *silicon.Chip {
	src := rng.New(c.seed).Fork("chip", i)
	if impostor {
		src = rng.New(^c.seed).Fork("counterfeit", i)
	}
	return silicon.NewChip(src, silicon.DefaultParams(), c.xor)
}

type netConfig struct {
	seed uint64
	xor  int
}

func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7410", "listen address")
	chips := fs.Int("chips", 2, "number of simulated chips to enroll and register (0 = none; e.g. a migration target)")
	xorWidth := fs.Int("xor", 6, "XOR width of each chip")
	n := fs.Int("n", 100, "challenges per authentication")
	seed := fs.Uint64("seed", 1, "simulation seed (must match the auth side)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-message I/O deadline")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain deadline")
	maxConns := fs.Int("maxconns", 0, "concurrent session cap (0 = unlimited)")
	lockout := fs.Int("lockout", 5, "consecutive denials before a chip is locked out (0 = off)")
	throttle := fs.Duration("throttle", 0, "minimum interval between attempts per chip (0 = off)")
	budget := fs.Int("budget", 0, "lifetime challenge budget per chip (0 = unlimited)")
	keyexOn := fs.Bool("keyex", false, "enable the reverse fuzzy-extractor key exchange (encrypted sessions)")
	keyexM := fs.Int("keyex-m", 8, "key exchange BCH field degree m (code length 2^m−1 challenges per derivation)")
	keyexT := fs.Int("keyex-t", 12, "key exchange BCH correction capability t")
	state := fs.String("state", "", "registry state directory (empty = in-memory; set to survive restarts)")
	admin := fs.String("admin", "", "admin HTTP address serving /metrics, /healthz, /traces, /debug/pprof (empty = off)")
	workers := fs.Int("workers", 0, "enrollment worker-pool size (0 = GOMAXPROCS)")
	autoReenroll := fs.Bool("auto-reenroll", false, "automatically re-enroll chips the drift detectors quarantine")
	sample := fs.Duration("sample", 2*time.Second, "telemetry sampling / SLO evaluation interval (0 = SLO plane off)")
	attackLockout := fs.Bool("attack-lockout", false, "force-lock any chip whose suspected-modeling-attack alert fires")
	primaryAddr := fs.String("primary", "", "replication listen address: serve as a replication primary for followers")
	followerAddr := fs.String("follower", "", "primary's replication address: replicate instead of serving (auth starts on promotion)")
	replQuorum := fs.Int("repl-quorum", 1, "follower acks required before an issued challenge leaves the server (with -primary)")
	replStrict := fs.Bool("repl-strict", false, "fail issuance when the quorum cannot ack, instead of degrading to async (with -primary)")
	replFault := fs.Bool("repl-fault", false, "apply the -fault-* chaos knobs to the replication link instead of the auth port")
	migrateListen := fs.String("migrate-listen", "", "listen address for inbound chip-range migrations (empty = off; see \"puflab rebalance\")")
	fault := faultFlags(fs)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *primaryAddr != "" && *followerAddr != "" {
		fmt.Fprintln(os.Stderr, "puflab serve: -primary and -follower are mutually exclusive")
		os.Exit(2)
	}
	if *followerAddr != "" && *admin == "" {
		fmt.Fprintln(os.Stderr, "puflab serve: -follower needs -admin (promotion happens via POST /repl/promote)")
		os.Exit(2)
	}
	if *followerAddr != "" && *autoReenroll {
		fmt.Fprintln(os.Stderr, "puflab serve: -auto-reenroll is a primary-side repair; a follower must not mutate its registry")
		os.Exit(2)
	}
	if *followerAddr != "" && *migrateListen != "" {
		fmt.Fprintln(os.Stderr, "puflab serve: -migrate-listen installs chips locally; a follower must not mutate its registry")
		os.Exit(2)
	}

	// Tag every span this process records with its role and auth address,
	// so `puflab trace collect` can tell the shard apart from the follower
	// it fails over to.
	if *followerAddr != "" {
		dtrace.SetService("follower@" + *addr)
	} else {
		dtrace.SetService("shard@" + *addr)
	}

	// The model database lives in a registry keyed by *seed+1 (selector
	// streams); with -state it persists enrollments AND the never-reuse
	// challenge history across server restarts.
	openStart := time.Now()
	reg, err := registry.Open(*state, registry.Options{Seed: *seed + 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "puflab serve: opening registry: %v\n", err)
		os.Exit(1)
	}
	defer reg.Close()
	if recovered := reg.Len(); recovered > 0 {
		fmt.Printf("recovered %d chips from %s in %v\n",
			recovered, *state, time.Since(openStart).Round(time.Millisecond))
	}
	srv := netauth.NewServerWithRegistry(*n, *seed+1, reg)
	srv.SessionRecorder().SetService(dtrace.Default.Service())
	srv.SetTimeout(*timeout)
	srv.SetDrainTimeout(*drain)
	srv.SetMaxConns(*maxConns)
	srv.SetLockout(*lockout)
	srv.SetThrottle(*throttle)
	srv.SetChallengeBudget(*budget)
	if *keyexOn {
		kcfg := keyex.Config{M: *keyexM, T: *keyexT}
		if err := srv.SetKeyExchange(kcfg); err != nil {
			fmt.Fprintf(os.Stderr, "puflab serve: key exchange config: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("key exchange enabled: BCH(m=%d,t=%d), %d challenges burned per key derivation\n",
			*keyexM, *keyexT, kcfg.N())
	}

	// A follower never enrolls: its whole registry arrives from the primary
	// (snapshot, then the tailed log), and local mutations would fork it.
	// -chips 0 also skips enrollment: a migration target starts empty and
	// receives its whole fleet from rebalancing sources.
	if *followerAddr == "" && *chips > 0 {
		rep, err := fleet.Run(fleet.Config{
			Chips:        *chips,
			Workers:      *workers,
			XORWidth:     *xorWidth,
			Seed:         *seed,
			Enroll:       core.DefaultEnrollConfig(),
			Budget:       *budget,
			SkipExisting: true, // resume over recovered state
			Progress:     fleetProgress(*chips),
		}, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "puflab serve: fleet enrollment: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("enrolled %d chips (%d already present) in %v — %.1f chips/s\n",
			rep.Enrolled, rep.Skipped, rep.Duration.Round(time.Millisecond), rep.PerSecond)
	}

	// Health transitions are always reported; with -auto-reenroll a
	// quarantined chip is also repaired in place (re-measured, refit,
	// swapped) without restarting the server.
	var repair *fleet.ReEnroller
	if *autoReenroll {
		nc := netConfig{seed: *seed, xor: *xorWidth}
		repair, err = fleet.NewReEnroller(reg, fleet.ReEnrollConfig{
			Seed:   *seed,
			Budget: *budget,
			Chip: func(id string) (*silicon.Chip, error) {
				var idx int
				if _, err := fmt.Sscanf(id, "chip-%d", &idx); err != nil {
					return nil, fmt.Errorf("cannot derive fleet index from id %q", id)
				}
				return nc.chip(idx, false), nil
			},
			OnResult: func(id string, err error) {
				if err != nil {
					fmt.Fprintf(os.Stderr, "puflab serve: auto re-enroll %s: %v\n", id, err)
					return
				}
				fmt.Printf("health: %s re-enrolled and restored to service\n", id)
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "puflab serve: %v\n", err)
			os.Exit(1)
		}
	}
	srv.SetHealthHandler(func(ev health.Event) {
		fmt.Printf("health: %s %v → %v (%s)\n", ev.ChipID, ev.From, ev.To, ev.Cause)
		if repair != nil {
			repair.Handle(ev)
		}
	})

	// Replication roles.  A primary ships its journal to followers and gates
	// issuance on their acks; a follower tails the primary into this
	// process's registry and serves no authentication until promoted.
	var prim *repl.Primary
	var foll *repl.Follower
	var follCancel context.CancelFunc
	if *primaryAddr != "" {
		replLn, err := net.Listen("tcp", *primaryAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "puflab serve: replication listener: %v\n", err)
			os.Exit(1)
		}
		if *replFault {
			replLn = faultnet.WrapListener(replLn, fault())
			fmt.Printf("fault injection active on the replication link: %+v\n", fault())
		}
		prim = repl.NewPrimary(reg, repl.PrimaryConfig{Quorum: *replQuorum, Strict: *replStrict})
		go func() {
			if err := prim.Serve(replLn); err != nil {
				fmt.Fprintf(os.Stderr, "puflab serve: replication primary: %v\n", err)
			}
		}()
		fmt.Printf("replication primary on %s (quorum=%d, strict=%v)\n", replLn.Addr(), *replQuorum, *replStrict)
	}
	if *followerAddr != "" {
		var follCfg repl.FollowerConfig
		if *replFault {
			follCfg.Dial = faultnet.NewDialer(fault()).DialContext
			fmt.Printf("fault injection active on the replication link: %+v\n", fault())
		}
		foll = repl.NewFollower(reg, *followerAddr, follCfg)
		var follCtx context.Context
		follCtx, follCancel = context.WithCancel(context.Background())
		go foll.Run(follCtx)
		fmt.Printf("replicating from %s; authentication serving deferred until promotion\n", *followerAddr)
	}

	// Rebalancing.  The acceptor serves INBOUND migrations (this process is
	// the target: snapshot install, delta apply, cutover journal); the
	// manager owns at most one OUTBOUND migration at a time, driven through
	// the admin plane by `puflab rebalance`.
	var migAcc *rebalance.Acceptor
	if *migrateListen != "" {
		migLn, err := net.Listen("tcp", *migrateListen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "puflab serve: migration listener: %v\n", err)
			os.Exit(1)
		}
		migAcc = rebalance.NewAcceptor(reg, migLn, rebalance.AcceptorConfig{
			Logf: func(format string, args ...interface{}) {
				fmt.Printf("rebalance: "+format+"\n", args...)
			},
		})
		fmt.Printf("migration acceptor on %s (inbound chip-range transfers)\n", migLn.Addr())
	}
	rebal := &rebalanceManager{reg: reg}

	// SLO plane: a sampler snapshots the process-wide registry (runtime
	// collector included) on every tick; the burn-rate engine and the
	// attack-pattern anomaly detector evaluate on the same timeline.
	sampler := history.NewSampler(telemetry.Default, history.Options{
		Collectors: []func(){telemetry.RuntimeCollector(telemetry.Default, time.Now)},
	})
	engine := slo.NewEngine(sampler, slo.DefaultRules())
	// Latency alerts carry a concrete offending trace ID: the engine pulls
	// each rule's histogram exemplar on every evaluation.
	engine.SetExemplarSource(func(hist string) (string, float64) {
		if h := telemetry.Default.FindHistogram(hist); h != nil {
			return h.Exemplar()
		}
		return "", 0
	})
	detector := slo.NewAnomalyDetector(slo.AnomalyConfig{}, sampler.Now)
	engine.Attach(detector)
	srv.SetSessionObserver(detector.ObserveSession)
	engine.OnEvent(func(ev slo.Event) {
		fmt.Printf("alert: %s [%s] %s → %s (%s)\n", ev.Name, ev.Severity, ev.FromState, ev.ToState, ev.Reason)
		if *attackLockout && ev.ToState == "firing" {
			if chip := slo.ChipIDFromAlert(ev.Name); chip != "" && srv.ForceLockout(chip) {
				fmt.Printf("alert: %s locked out (suspected modeling attack)\n", chip)
			}
		}
	})
	var sloStop chan struct{}
	if *sample > 0 {
		sloStop = make(chan struct{})
		go func() {
			tick := time.NewTicker(*sample)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					sampler.Tick()
					engine.Evaluate()
				case <-sloStop:
					return
				}
			}
		}()
	}

	// Authentication serving is a closure so a follower can defer it to the
	// moment of promotion; every other role starts it immediately.
	done := make(chan error, 1)
	var authOnce sync.Once
	var authStarted atomic.Bool
	startAuth := func() error {
		var startErr error
		authOnce.Do(func() {
			ln, err := net.Listen("tcp", *addr)
			if err != nil {
				startErr = err
				return
			}
			var serveLn net.Listener = ln
			if cfg := fault(); !*replFault && (cfg.ResetProb > 0 || cfg.CorruptProb > 0 || cfg.StallProb > 0 ||
				cfg.PartialWriteProb > 0 || cfg.MaxLatency > 0) {
				serveLn = faultnet.WrapListener(ln, cfg)
				fmt.Printf("fault injection active: %+v\n", cfg)
			}
			fmt.Printf("verification server on %s (n=%d, lockout=%d, throttle=%v, budget=%d)\n",
				ln.Addr(), *n, *lockout, *throttle, *budget)
			authStarted.Store(true)
			go func() { done <- srv.Serve(serveLn) }()
		})
		return startErr
	}

	// Observability plane: metrics, health, session records, time series,
	// SLOs, alerts, replication state, and pprof on a separate listener so
	// operational scraping never competes with (or exposes) the
	// authentication port.
	var adminLn net.Listener
	if *admin != "" {
		adminLn, err = net.Listen("tcp", *admin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "puflab serve: admin listener: %v\n", err)
			os.Exit(1)
		}
		endpoints := []telemetry.Endpoint{
			{Path: "/traces", Handler: dtrace.Handler(srv.SessionRecorder())},
			{Path: "/trace/spans", Handler: dtrace.Handler(dtrace.Default)},
			{Path: "/timeseries", Handler: sampler.Handler()},
			{Path: "/slo", Handler: engine.SLOHandler()},
			{Path: "/alerts", Handler: engine.AlertsHandler()},
			{Path: "/repl", Handler: replStatusHandler(prim, foll)},
			{Path: "/rebalance", Handler: rebal.statusHandler()},
			{Path: "/rebalance/start", Handler: rebal.startHandler()},
			{Path: "/rebalance/abort", Handler: rebal.abortHandler()},
		}
		if foll != nil {
			endpoints = append(endpoints, telemetry.Endpoint{
				Path: "/repl/promote", Handler: promoteHandler(foll, startAuth),
			})
		}
		mux := telemetry.AdminMux(telemetry.Default, func() any {
			approved, denied := srv.Stats()
			payload := map[string]any{
				"status":   "ok",
				"chips":    reg.Len(),
				"approved": approved,
				"denied":   denied,
			}
			if doc := replStatusDocFor(prim, foll); doc.Role != "standalone" {
				payload["repl"] = doc
				// A degraded replication link is a health event: the
				// never-reuse guarantee is running on one copy.
				if doc.Follower != nil && doc.Follower.State == repl.StateDegraded {
					payload["status"] = "degraded"
				}
			}
			return payload
		}, endpoints...)
		go func() {
			if err := http.Serve(adminLn, mux); err != nil && !isClosedErr(err) {
				fmt.Fprintf(os.Stderr, "puflab serve: admin server: %v\n", err)
			}
		}()
		fmt.Printf("admin plane on http://%s (/metrics /healthz /traces /trace/spans /timeseries /slo /alerts /repl /rebalance /debug/pprof)\n", adminLn.Addr())
	}

	if *followerAddr == "" {
		if err := startAuth(); err != nil {
			fmt.Fprintf(os.Stderr, "puflab serve: %v\n", err)
			os.Exit(1)
		}
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
		srv.Close()
		if authStarted.Load() {
			<-done
		}
	case err := <-done:
		if err != nil {
			fmt.Fprintf(os.Stderr, "puflab serve: %v\n", err)
			os.Exit(1)
		}
	}
	if follCancel != nil {
		follCancel() // stop replicating (no-op after promotion)
	}
	if migAcc != nil {
		_ = migAcc.Close() // drop inbound migration sessions (sources retry)
	}
	if prim != nil {
		prim.Close() // drop follower links and detach the commit gate
	}
	if repair != nil {
		repair.Close() // finish any in-flight re-enrollment before flushing
	}
	// Shutdown order matters: stop the admin plane first so no scrape races
	// the final snapshot, then persist that snapshot next to the WAL, then
	// flush the registry.
	if adminLn != nil {
		_ = adminLn.Close()
	}
	if sloStop != nil {
		close(sloStop)
	}
	// One last sample + evaluation so the final state reflects traffic that
	// landed after the last ticker fire.
	sampler.Tick()
	engine.Evaluate()
	approved, denied := srv.Stats()
	fmt.Printf("decision log: %d approved, %d denied\n", approved, denied)
	if *state != "" {
		if err := writeFinalMetrics(*state); err != nil {
			fmt.Fprintf(os.Stderr, "puflab serve: final metrics snapshot: %v\n", err)
		}
		if err := writeFinalSLO(*state, engine); err != nil {
			fmt.Fprintf(os.Stderr, "puflab serve: final SLO snapshot: %v\n", err)
		}
		if err := writeFinalSpans(*state); err != nil {
			fmt.Fprintf(os.Stderr, "puflab serve: final span snapshot: %v\n", err)
		}
	}
	// Flush explicitly so shutdown compacts the WAL into a snapshot; the
	// deferred Close is then a no-op.
	if err := reg.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "puflab serve: flushing registry: %v\n", err)
		os.Exit(1)
	}
	if *state != "" {
		fmt.Printf("registry flushed to %s\n", *state)
	}
}

// writeFinalMetrics persists the closing metrics snapshot beside the WAL, so
// a post-mortem of a stopped server still has its last counters.
func writeFinalMetrics(stateDir string) error {
	b, err := telemetry.Default.Snapshot().MarshalJSONIndent()
	if err != nil {
		return err
	}
	path := filepath.Join(stateDir, "metrics_final.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("final metrics snapshot written to %s\n", path)
	return nil
}

// writeFinalSLO persists the engine's closing alert/objective state beside
// metrics_final.json, so a post-mortem also sees what was firing at exit.
func writeFinalSLO(stateDir string, engine *slo.Engine) error {
	b, err := json.MarshalIndent(engine.Final(), "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(stateDir, "slo_final.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("final SLO snapshot written to %s\n", path)
	return nil
}

// writeFinalSpans persists the closing distributed-trace span ring beside
// metrics_final.json, so `puflab trace show -in` works on a stopped server.
func writeFinalSpans(stateDir string) error {
	b, err := dtrace.Default.MarshalJSONIndent()
	if err != nil {
		return err
	}
	path := filepath.Join(stateDir, "spans_final.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("final span snapshot written to %s\n", path)
	return nil
}

// replStatusDoc is the /repl payload (and the "repl" key in /healthz).
type replStatusDoc struct {
	Role     string               `json:"role"`
	Primary  *repl.PrimaryStatus  `json:"primary,omitempty"`
	Follower *repl.FollowerStatus `json:"follower,omitempty"`
}

func replStatusDocFor(prim *repl.Primary, foll *repl.Follower) replStatusDoc {
	switch {
	case prim != nil:
		st := prim.Status()
		return replStatusDoc{Role: "primary", Primary: &st}
	case foll != nil:
		st := foll.Status()
		return replStatusDoc{Role: "follower", Follower: &st}
	default:
		return replStatusDoc{Role: "standalone"}
	}
}

// replStatusHandler serves /repl: the process's replication role and state.
func replStatusHandler(prim *repl.Primary, foll *repl.Follower) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(replStatusDocFor(prim, foll))
	})
}

// promoteHandler serves POST /repl/promote on a follower: stop replicating
// and start serving authentication from the replicated registry.  The call
// is idempotent — repeated posts re-report the promotion.
func promoteHandler(foll *repl.Follower, startAuth func() error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "promotion requires POST", http.StatusMethodNotAllowed)
			return
		}
		seq := foll.Promote()
		if err := startAuth(); err != nil {
			http.Error(w, fmt.Sprintf("promoted at seq %d but auth serving failed: %v", seq, err),
				http.StatusInternalServerError)
			return
		}
		fmt.Printf("promoted: serving authentication from replicated state at seq %d\n", seq)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"promoted": true, "seq": seq})
	})
}

// isClosedErr reports whether err is the routine "use of closed network
// connection" an http.Serve returns when its listener is shut down.
func isClosedErr(err error) bool {
	return errors.Is(err, http.ErrServerClosed) || errors.Is(err, net.ErrClosed)
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
	fault := faultFlags(fs)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	nc := netConfig{seed: *seed, xor: *xorWidth}
	chip := nc.chip(*chipIdx, *impostor)
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
	if cfg := fault(); cfg.ResetProb > 0 || cfg.CorruptProb > 0 || cfg.StallProb > 0 ||
		cfg.PartialWriteProb > 0 || cfg.MaxLatency > 0 {
		client.DialContext = faultnet.NewDialer(cfg).DialContext
		fmt.Printf("fault injection active: %+v\n", cfg)
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
