// Package node assembles and tears down everything `puflab serve` runs:
// registry and WAL, fleet enrollment, the Fig 7 server, key exchange,
// re-enrollment, replication, migration, the SLO plane and the admin plane.
// Like serve, a node reports on stdout and stderr and records into the
// process-wide telemetry.Default and dtrace.Default.
package node

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
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
	"xorpuf/internal/silicon"
	"xorpuf/internal/telemetry"
	"xorpuf/internal/telemetry/dtrace"
	"xorpuf/internal/telemetry/history"
	"xorpuf/internal/telemetry/slo"
)

// Config is one node's settings; each field is the serve flag named in its
// comment.
type Config struct {
	Addr          string          // -addr: authentication listen address
	Chips         int             // -chips: simulated chips to enroll (0 = none)
	XOR           int             // -xor: XOR width of each chip
	N             int             // -n: challenges per authentication
	Seed          uint64          // -seed: simulation seed
	Timeout       time.Duration   // -timeout: per-message I/O deadline
	Drain         time.Duration   // -drain: graceful-shutdown drain deadline
	MaxConns      int             // -maxconns: concurrent session cap (0 = unlimited)
	Lockout       int             // -lockout: consecutive denials before lockout (0 = off)
	Throttle      time.Duration   // -throttle: minimum interval between attempts per chip
	Budget        int             // -budget: lifetime challenge budget per chip (0 = unlimited)
	KeyEx         *keyex.Config   // -keyex, -keyex-m, -keyex-t (nil = off)
	State         string          // -state: registry directory (empty = in-memory)
	Admin         string          // -admin: admin HTTP address (empty = off)
	Workers       int             // -workers: enrollment worker-pool size
	AutoReenroll  bool            // -auto-reenroll
	Sample        time.Duration   // -sample: SLO tick (0 = SLO plane off)
	AttackLockout bool            // -attack-lockout
	Primary       string          // -primary: replication listen address
	Follower      string          // -follower: primary's replication address
	ReplQuorum    int             // -repl-quorum
	ReplStrict    bool            // -repl-strict
	ReplFault     bool            // -repl-fault: Fault applies to the replication link
	MigrateListen string          // -migrate-listen: inbound migration address
	Fault         faultnet.Config // the seven -fault-* flags
}

// ConfigError is a Config that Start refuses before touching any state:
// conflicting roles or an invalid key-exchange code.
type ConfigError struct{ msg string }

func (e *ConfigError) Error() string { return e.msg }

// check rejects the flag combinations serve refuses.
func (cfg Config) check() error {
	follower := cfg.Follower != ""
	switch {
	case cfg.Primary != "" && follower:
		return &ConfigError{"-primary and -follower are mutually exclusive"}
	case follower && cfg.Admin == "":
		return &ConfigError{"-follower needs -admin (promotion happens via POST /repl/promote)"}
	case follower && cfg.AutoReenroll:
		return &ConfigError{"-auto-reenroll is a primary-side repair; a follower must not mutate its registry"}
	case follower && cfg.MigrateListen != "":
		return &ConfigError{"-migrate-listen installs chips locally; a follower must not mutate its registry"}
	}
	if cfg.KeyEx != nil {
		if err := cfg.KeyEx.Validate(); err != nil {
			return &ConfigError{fmt.Sprintf("key exchange config: %v", err)}
		}
	}
	return nil
}

// Node is one running verification node.
type Node struct {
	cfg     Config
	reg     *registry.Registry
	srv     *netauth.Server
	repair  *fleet.ReEnroller
	prim    *repl.Primary
	replLn  net.Listener
	foll    *repl.Follower
	cancel  context.CancelFunc // stops the follower
	migAcc  *rebalance.Acceptor
	migLn   net.Listener
	sampler *history.Sampler
	engine  *slo.Engine
	sloStop chan struct{}
	sloDone chan struct{}
	adminLn net.Listener
	done    chan error // Serve's exit error, then closed

	mu     sync.Mutex
	authLn net.Listener // nil until authentication serving starts
	closed bool

	// migSrc is the one outbound migration slot, driven through the admin
	// plane.  Its last terminal status stays visible until the next start,
	// so a -wait poller never races the slot being cleared.
	migMu  sync.Mutex
	migSrc *rebalance.Source
}

// warnf reports a failure on stderr the way serve always has.
func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "puflab serve: "+format+"\n", args...)
}

// Start assembles a node from cfg in serve's order.  A refused Config is a
// *ConfigError; any other error is a runtime failure, and Start releases
// what it had built before returning it.
func Start(cfg Config) (*Node, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	// Tag every span this process records with its role and auth address,
	// so `puflab trace collect` can tell the shard apart from the follower
	// it fails over to.
	if cfg.Follower != "" {
		dtrace.SetService("follower@" + cfg.Addr)
	} else {
		dtrace.SetService("shard@" + cfg.Addr)
	}

	// The model database lives in a registry keyed by Seed+1 (selector
	// streams); with State it persists enrollments AND the never-reuse
	// challenge history across restarts.
	openStart := time.Now()
	reg, err := registry.Open(cfg.State, registry.Options{Seed: cfg.Seed + 1})
	if err != nil {
		return nil, fmt.Errorf("opening registry: %w", err)
	}
	if recovered := reg.Len(); recovered > 0 {
		fmt.Printf("recovered %d chips from %s in %v\n",
			recovered, cfg.State, time.Since(openStart).Round(time.Millisecond))
	}
	n := &Node{cfg: cfg, reg: reg, done: make(chan error, 1)}
	if err := n.assemble(); err != nil {
		n.stop()
		_ = reg.Close()
		return nil, err
	}
	return n, nil
}

// assemble builds everything after the registry.
func (n *Node) assemble() error {
	cfg := n.cfg
	n.srv = netauth.NewServerWithRegistry(cfg.N, cfg.Seed+1, n.reg)
	srv := n.srv
	srv.SessionRecorder().SetService(dtrace.Default.Service())
	srv.SetTimeout(cfg.Timeout)
	srv.SetDrainTimeout(cfg.Drain)
	srv.SetMaxConns(cfg.MaxConns)
	srv.SetLockout(cfg.Lockout)
	srv.SetThrottle(cfg.Throttle)
	srv.SetChallengeBudget(cfg.Budget)
	if cfg.KeyEx != nil {
		_ = srv.SetKeyExchange(*cfg.KeyEx) // check validated the code
		fmt.Printf("key exchange enabled: BCH(m=%d,t=%d), %d challenges burned per key derivation\n",
			cfg.KeyEx.M, cfg.KeyEx.T, cfg.KeyEx.N())
	}

	// A follower never enrolls: its whole registry arrives from the primary
	// (snapshot, then the tailed log), and local mutations would fork it.
	// Chips 0 also skips enrollment: a migration target starts empty and
	// receives its whole fleet from rebalancing sources.
	if cfg.Follower == "" && cfg.Chips > 0 {
		rep, err := fleet.Run(fleet.Config{
			Chips:        cfg.Chips,
			Workers:      cfg.Workers,
			XORWidth:     cfg.XOR,
			Seed:         cfg.Seed,
			Enroll:       core.DefaultEnrollConfig(),
			Budget:       cfg.Budget,
			SkipExisting: true, // resume over recovered state
			Progress:     fleet.PrintProgress(cfg.Chips),
		}, n.reg)
		if err != nil {
			return fmt.Errorf("fleet enrollment: %w", err)
		}
		fmt.Printf("enrolled %d chips (%d already present) in %v — %.1f chips/s\n",
			rep.Enrolled, rep.Skipped, rep.Duration.Round(time.Millisecond), rep.PerSecond)
	}

	// Health transitions are always reported; with AutoReenroll a
	// quarantined chip is also repaired in place (re-measured, refit,
	// swapped) without restarting the server.
	if cfg.AutoReenroll {
		repair, err := fleet.NewReEnroller(n.reg, fleet.ReEnrollConfig{
			Seed:   cfg.Seed,
			Budget: cfg.Budget,
			Chip:   fleet.Provider(cfg.Seed, silicon.DefaultParams(), cfg.XOR),
			OnResult: func(id string, err error) {
				if err != nil {
					warnf("auto re-enroll %s: %v", id, err)
					return
				}
				fmt.Printf("health: %s re-enrolled and restored to service\n", id)
			},
		})
		if err != nil {
			return err
		}
		n.repair = repair
	}
	srv.SetHealthHandler(func(ev health.Event) {
		fmt.Printf("health: %s %v → %v (%s)\n", ev.ChipID, ev.From, ev.To, ev.Cause)
		if n.repair != nil {
			n.repair.Handle(ev)
		}
	})

	// Replication roles.  A primary ships its journal to followers and gates
	// issuance on their acks; a follower tails the primary into this
	// node's registry and serves no authentication until promoted.
	if cfg.Primary != "" {
		ln, err := net.Listen("tcp", cfg.Primary)
		if err != nil {
			return fmt.Errorf("replication listener: %w", err)
		}
		n.replLn = ln
		if cfg.ReplFault {
			ln = faultnet.WrapListener(ln, cfg.Fault)
			fmt.Printf("fault injection active on the replication link: %+v\n", cfg.Fault)
		}
		n.prim = repl.NewPrimary(n.reg, repl.PrimaryConfig{Quorum: cfg.ReplQuorum, Strict: cfg.ReplStrict})
		go func() {
			if err := n.prim.Serve(ln); err != nil {
				warnf("replication primary: %v", err)
			}
		}()
		fmt.Printf("replication primary on %s (quorum=%d, strict=%v)\n", ln.Addr(), cfg.ReplQuorum, cfg.ReplStrict)
	}
	if cfg.Follower != "" {
		var follCfg repl.FollowerConfig
		if cfg.ReplFault {
			follCfg.Dial = faultnet.NewDialer(cfg.Fault).DialContext
			fmt.Printf("fault injection active on the replication link: %+v\n", cfg.Fault)
		}
		n.foll = repl.NewFollower(n.reg, cfg.Follower, follCfg)
		var ctx context.Context
		ctx, n.cancel = context.WithCancel(context.Background())
		go n.foll.Run(ctx)
		fmt.Printf("replicating from %s; authentication serving deferred until promotion\n", cfg.Follower)
	}

	// The acceptor serves INBOUND migrations (this node is the target:
	// snapshot install, delta apply, cutover journal); n.migSrc is the one
	// OUTBOUND migration.
	if cfg.MigrateListen != "" {
		ln, err := net.Listen("tcp", cfg.MigrateListen)
		if err != nil {
			return fmt.Errorf("migration listener: %w", err)
		}
		n.migLn = ln
		n.migAcc = rebalance.NewAcceptor(n.reg, ln, rebalance.AcceptorConfig{Logf: rebalanceLogf})
		fmt.Printf("migration acceptor on %s (inbound chip-range transfers)\n", ln.Addr())
	}

	n.startSLO()
	if cfg.Admin != "" {
		if err := n.startAdmin(); err != nil {
			return err
		}
	}
	if cfg.Follower == "" {
		return n.startAuth()
	}
	return nil
}

// startSLO builds the SLO plane: a sampler snapshots the process-wide
// registry (runtime collector included) on every tick; the burn-rate
// engine and the attack-pattern anomaly detector evaluate on the same
// timeline.
func (n *Node) startSLO() {
	n.sampler = history.NewSampler(telemetry.Default, history.Options{
		Collectors: []func(){telemetry.RuntimeCollector(telemetry.Default, time.Now)},
	})
	n.engine = slo.NewEngine(n.sampler, slo.DefaultRules())
	detector := slo.NewAnomalyDetector(slo.AnomalyConfig{}, n.sampler.Now)
	n.engine.Attach(detector)
	n.srv.SetSessionObserver(detector.ObserveSession)
	n.engine.OnEvent(func(ev slo.Event) {
		fmt.Printf("alert: %s [%s] %s → %s (%s)\n", ev.Name, ev.Severity, ev.FromState, ev.ToState, ev.Reason)
		if n.cfg.AttackLockout && ev.ToState == "firing" {
			if chip := slo.ChipIDFromAlert(ev.Name); chip != "" && n.srv.ForceLockout(chip) {
				fmt.Printf("alert: %s locked out (suspected modeling attack)\n", chip)
			}
		}
	})
	if n.cfg.Sample <= 0 {
		return
	}
	n.sloStop, n.sloDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(n.sloDone)
		tick := time.NewTicker(n.cfg.Sample)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				n.sampler.Tick()
				n.engine.Evaluate()
			case <-n.sloStop:
				return
			}
		}
	}()
}

// startAuth binds the authentication port and serves it.  It runs at
// Start, or for a follower at promotion; a repeated call is a no-op.
func (n *Node) startAuth() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return errors.New("node is closed")
	}
	if n.authLn != nil {
		return nil
	}
	ln, err := net.Listen("tcp", n.cfg.Addr)
	if err != nil {
		return err
	}
	n.authLn = ln
	if fc := n.cfg.Fault; !n.cfg.ReplFault && fc.Injects() {
		ln = faultnet.WrapListener(ln, fc)
		fmt.Printf("fault injection active: %+v\n", fc)
	}
	fmt.Printf("verification server on %s (n=%d, lockout=%d, throttle=%v, budget=%d)\n",
		n.authLn.Addr(), n.cfg.N, n.cfg.Lockout, n.cfg.Throttle, n.cfg.Budget)
	go func() {
		n.done <- n.srv.Serve(ln)
		close(n.done)
	}()
	return nil
}

// Registry returns the node's chip registry.
func (n *Node) Registry() *registry.Registry { return n.reg }

// Server returns the node's authentication server.
func (n *Node) Server() *netauth.Server { return n.srv }

// Done yields the authentication server's exit error once serving stops on
// its own, and is closed after that.  A follower's stays open until it is
// promoted.
func (n *Node) Done() <-chan error { return n.done }

// AuthAddr is the bound authentication address, "" until serving starts.
func (n *Node) AuthAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return addrOf(n.authLn)
}

// AdminAddr is the bound admin-plane address, "" without Admin.
func (n *Node) AdminAddr() string { return addrOf(n.adminLn) }

// ReplAddr is the bound replication address, "" unless Primary is set.
func (n *Node) ReplAddr() string { return addrOf(n.replLn) }

// MigrateAddr is the bound migration address, "" without MigrateListen.
func (n *Node) MigrateAddr() string { return addrOf(n.migLn) }

func addrOf(ln net.Listener) string {
	if ln == nil {
		return ""
	}
	return ln.Addr().String()
}

// stop halts every serving part, in shutdown order.
func (n *Node) stop() {
	n.mu.Lock()
	n.closed = true
	started := n.authLn != nil
	n.mu.Unlock()
	n.srv.Close()
	if started {
		<-n.done
	}
	if n.cancel != nil {
		n.cancel() // stop replicating (no-op after promotion)
	}
	if n.migAcc != nil {
		_ = n.migAcc.Close() // drop inbound migration sessions (sources retry)
	}
	if n.prim != nil {
		n.prim.Close() // drop follower links and detach the commit gate
	}
	if n.repair != nil {
		n.repair.Close() // finish any in-flight re-enrollment before flushing
	}
	// Stop the admin plane before the final snapshot, so no scrape races it.
	if n.adminLn != nil {
		_ = n.adminLn.Close()
	}
	if n.sloStop != nil {
		close(n.sloStop)
		<-n.sloDone
	}
}

// Close drains and stops the node, persists the final metrics, SLO and
// span snapshots beside the WAL, and flushes the registry.  Call it once.
func (n *Node) Close() error {
	n.stop()
	// One last sample + evaluation so the final state reflects traffic that
	// landed after the last ticker fire.
	n.sampler.Tick()
	n.engine.Evaluate()
	approved, denied := n.srv.Stats()
	fmt.Printf("decision log: %d approved, %d denied\n", approved, denied)
	if dir := n.cfg.State; dir != "" {
		writeFinal(dir, "metrics_final.json", "metrics", telemetry.Default.Snapshot().MarshalJSONIndent)
		writeFinal(dir, "slo_final.json", "SLO", func() ([]byte, error) {
			return json.MarshalIndent(n.engine.Final(), "", "  ")
		})
		writeFinal(dir, "spans_final.json", "span", dtrace.Default.MarshalJSONIndent)
	}
	// Flushing compacts the WAL into a snapshot.
	if err := n.reg.Close(); err != nil {
		return fmt.Errorf("flushing registry: %w", err)
	}
	if n.cfg.State != "" {
		fmt.Printf("registry flushed to %s\n", n.cfg.State)
	}
	return nil
}

// writeFinal persists one closing snapshot as dir/name, so a post-mortem
// of a stopped server still has its last state.
func writeFinal(dir, name, what string, marshal func() ([]byte, error)) {
	b, err := marshal()
	if err == nil {
		path := filepath.Join(dir, name)
		if err = os.WriteFile(path, append(b, '\n'), 0o644); err == nil {
			fmt.Printf("final %s snapshot written to %s\n", what, path)
			return
		}
	}
	warnf("final %s snapshot: %v", what, err)
}

// startAdmin serves the observability plane — metrics, health, session
// records, time series, SLOs, alerts, replication and rebalance state, and
// pprof — on its own listener, so operational scraping never competes with
// (or exposes) the authentication port.
func (n *Node) startAdmin() error {
	ln, err := net.Listen("tcp", n.cfg.Admin)
	if err != nil {
		return fmt.Errorf("admin listener: %w", err)
	}
	n.adminLn = ln
	endpoints := []telemetry.Endpoint{
		{Path: "/traces", Handler: dtrace.Handler(n.srv.SessionRecorder())},
		{Path: "/trace/spans", Handler: dtrace.Handler(dtrace.Default)},
		{Path: "/timeseries", Handler: n.sampler.Handler()},
		{Path: "/slo", Handler: n.engine.SLOHandler()},
		{Path: "/alerts", Handler: n.engine.AlertsHandler()},
		{Path: "/repl", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			telemetry.WriteJSON(w, n.replDoc())
		})},
		{Path: "/rebalance", Handler: http.HandlerFunc(n.serveRebalance)},
		{Path: "/rebalance/start", Handler: http.HandlerFunc(n.serveRebalanceStart)},
		{Path: "/rebalance/abort", Handler: http.HandlerFunc(n.serveRebalanceAbort)},
	}
	if n.foll != nil {
		endpoints = append(endpoints, telemetry.Endpoint{Path: "/repl/promote", Handler: http.HandlerFunc(n.servePromote)})
	}
	mux := telemetry.AdminMux(telemetry.Default, n.healthz, endpoints...)
	go func() {
		if err := http.Serve(ln, mux); err != nil && !errors.Is(err, net.ErrClosed) {
			warnf("admin server: %v", err)
		}
	}()
	fmt.Printf("admin plane on http://%s (/metrics /healthz /traces /trace/spans /timeseries /slo /alerts /repl /rebalance /debug/pprof)\n", ln.Addr())
	return nil
}

// ReplDoc is the /repl payload (and the "repl" key in /healthz).
type ReplDoc struct {
	Role     string               `json:"role"`
	Primary  *repl.PrimaryStatus  `json:"primary,omitempty"`
	Follower *repl.FollowerStatus `json:"follower,omitempty"`
}

func (n *Node) replDoc() ReplDoc {
	switch {
	case n.prim != nil:
		st := n.prim.Status()
		return ReplDoc{Role: "primary", Primary: &st}
	case n.foll != nil:
		st := n.foll.Status()
		return ReplDoc{Role: "follower", Follower: &st}
	default:
		return ReplDoc{Role: "standalone"}
	}
}

// healthz is the /healthz payload.
func (n *Node) healthz() any {
	approved, denied := n.srv.Stats()
	payload := map[string]any{
		"status":   "ok",
		"chips":    n.reg.Len(),
		"approved": approved,
		"denied":   denied,
	}
	if doc := n.replDoc(); doc.Role != "standalone" {
		payload["repl"] = doc
		// A degraded replication link is a health event: the never-reuse
		// guarantee is running on one copy.
		if doc.Follower != nil && doc.Follower.State == repl.StateDegraded {
			payload["status"] = "degraded"
		}
	}
	return payload
}

// servePromote serves POST /repl/promote on a follower: stop replicating
// and start serving authentication from the replicated registry.  The call
// is idempotent — repeated posts re-report the promotion.
func (n *Node) servePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "promotion requires POST", http.StatusMethodNotAllowed)
		return
	}
	seq := n.foll.Promote()
	if err := n.startAuth(); err != nil {
		http.Error(w, fmt.Sprintf("promoted at seq %d but auth serving failed: %v", seq, err),
			http.StatusInternalServerError)
		return
	}
	fmt.Printf("promoted: serving authentication from replicated state at seq %d\n", seq)
	telemetry.WriteJSON(w, map[string]any{"promoted": true, "seq": seq})
}

// RebalanceDoc is the GET /rebalance payload: the active (or most recent)
// outbound migration plus the registry's durable ownership state.
type RebalanceDoc struct {
	Epoch    uint64                   `json:"epoch"`
	Active   *rebalance.SourceStatus  `json:"active,omitempty"`
	Departed []registry.DepartedRange `json:"departed"`
	Fences   []registry.MigRange      `json:"fences"`
}

func rebalanceLogf(format string, args ...interface{}) {
	fmt.Printf("rebalance: "+format+"\n", args...)
}

func (n *Node) startMigration(cfg rebalance.SourceConfig) error {
	n.migMu.Lock()
	defer n.migMu.Unlock()
	if n.migSrc != nil {
		select {
		case <-n.migSrc.Done():
		default:
			return fmt.Errorf("migration %s is still running", n.migSrc.Status().MigrationID)
		}
	}
	src, err := rebalance.StartSource(n.reg, cfg)
	if err != nil {
		return err
	}
	n.migSrc = src
	return nil
}

// serveRebalance serves GET /rebalance.
func (n *Node) serveRebalance(w http.ResponseWriter, r *http.Request) {
	doc := RebalanceDoc{Epoch: n.reg.OwnershipEpoch(), Departed: n.reg.Departed(), Fences: n.reg.Fences()}
	n.migMu.Lock()
	if n.migSrc != nil {
		st := n.migSrc.Status()
		doc.Active = &st
	}
	n.migMu.Unlock()
	telemetry.WriteJSON(w, doc)
}

// serveRebalanceStart serves POST /rebalance/start (form params: id, lo,
// hi, target, redirect).
func (n *Node) serveRebalanceStart(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "starting a migration requires POST", http.StatusMethodNotAllowed)
		return
	}
	cfg := rebalance.SourceConfig{
		MigrationID: r.FormValue("id"),
		Lo:          r.FormValue("lo"),
		Hi:          r.FormValue("hi"),
		TargetAddr:  r.FormValue("target"),
		Redirect:    r.FormValue("redirect"),
		Logf:        rebalanceLogf,
	}
	if err := n.startMigration(cfg); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	fmt.Printf("rebalance: migration %s started: [%s, %s) → %s\n", cfg.MigrationID, cfg.Lo, cfg.Hi, cfg.TargetAddr)
	telemetry.WriteJSON(w, map[string]any{"started": true, "migration_id": cfg.MigrationID})
}

// serveRebalanceAbort serves POST /rebalance/abort.
func (n *Node) serveRebalanceAbort(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "aborting a migration requires POST", http.StatusMethodNotAllowed)
		return
	}
	n.migMu.Lock()
	src := n.migSrc
	n.migMu.Unlock()
	if src == nil {
		http.Error(w, "no migration to abort", http.StatusConflict)
		return
	}
	if err := src.Abort(); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	telemetry.WriteJSON(w, map[string]any{"aborting": true})
}
