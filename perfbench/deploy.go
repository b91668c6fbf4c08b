package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"xorpuf/internal/core"
	"xorpuf/internal/keyex"
	"xorpuf/internal/netauth"
	"xorpuf/internal/registry"
	"xorpuf/internal/registry/fleet"
	"xorpuf/internal/registry/repl"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
	"xorpuf/internal/telemetry/dtrace"
)

// workload is one fixed traffic mix: a fleet shape, a server deployment and
// a closed-loop client op mix.
type workload struct {
	name string
	why  string
	// width is every chip's XOR width n.
	width int
	// hardened enrolls with V/T-hardened β (all nine corners) and rotates
	// the devices through those corners; otherwise β is nominal and devices
	// run at the nominal condition.
	hardened bool
	chips    int
	// fleetSeed, when nonzero, fixes the fleet's silicon and enrollment;
	// --seed then derives the registry's candidate streams and the client
	// streams only.  At n=10 with V/T-hardened β the stable-challenge yield
	// varies several-fold from chip to chip, and some chips need more
	// candidates per challenge than Selector.Next's cap of 10,000 allows,
	// so a four-chip fleet drawn from each seed would measure the draw.
	// Chips 0-3 of fleet 11 need 2,500-2,750 candidates per challenge.
	fleetSeed uint64
	// durable journals the primary registry to a WAL and gates issuance
	// on a strict quorum of one follower, itself journaling to a WAL,
	// replicating over loopback TCP.  The WALs append without fsync: on a
	// shared disk fsync latency swings several-fold from minute to minute,
	// which no gated figure can carry; the ledger times fsync separately
	// (registry.fsync_issue_us).
	durable bool
	// keyexEvery makes one in keyexEvery ops of a client a key exchange
	// plus one 1 KiB encrypted payload; 0 means auth sessions only.
	keyexEvery int
	// batch is the number of sessions per AuthenticateBatch call; 1 uses
	// Authenticate.
	batch int
	// clients is the number of closed-loop clients, each with at most one
	// open connection and its own slice of the fleet.
	clients int
}

const (
	// challengesPerSession is the server's challenge count per auth session.
	challengesPerSession = 16
	// payloadBytes is the encrypted payload each key exchange carries.
	payloadBytes = 1024
	// scratchRoot holds the WAL directories; it is relative to the working
	// directory, so a run writes only inside its checkout.
	scratchRoot = ".bench_build"
)

// keyexConfig is the BCH geometry of every benchmarked key exchange: a
// 127-bit code, so one exchange burns 127 challenges in one record.
var keyexConfig = keyex.Config{M: 7, T: 8}

var workloads = []workload{
	{
		name:  "secure-n10",
		why:   "the paper's secure configuration: n=10 with V/T-hardened beta at every corner; selection dominates, no WAL or quorum",
		width: 10, hardened: true, chips: 4, fleetSeed: 11, batch: 1, clients: 2,
	},
	{
		name:  "durable-quorum",
		why:   "WAL journaling and the strict-quorum ack of every burn dominate; 1 key exchange per 7 auth sessions exposes burn-cost trade-offs",
		width: 4, chips: 16, durable: true, keyexEvery: 8, batch: 1, clients: 2,
	},
	{
		name:  "pipelined-mem",
		why:   "pipelined batches of 16 on persistent connections: codec, transport, dispatch and registry locks carry the cost",
		width: 4, chips: 16, batch: 16, clients: 2,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// deployment is one running system under test: the enrolled registry, the
// netauth server on a loopback listener, the optional replication pair, and
// the clients with their re-fabricated devices.
type deployment struct {
	wl   workload
	seed uint64
	dir  string // WAL root; "" when the registry is in memory

	reg       *registry.Registry
	srv       *netauth.Server
	addr      string
	serveDone chan struct{}

	primary      *repl.Primary
	primaryDone  chan struct{}
	freg         *registry.Registry
	stopFollower context.CancelFunc
	followerDone chan struct{}

	ids     []string
	devices []core.Device
	clients []*client

	// warm is what the set-up's warm-up ops issued; the journal audit
	// counts it alongside the measured phases.
	warm tally
}

// setup enrolls the fleet, opens the registry (and its follower), starts
// the listener and runs one warm-up op per chip.  The deployment's seed
// derives the fleet and the devices' noise streams (unless the workload
// fixes its fleet), the registry's candidate streams and the clients'
// backoff jitter.
func setup(wl workload, seed uint64) (*deployment, error) {
	d := &deployment{wl: wl, seed: seed}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	opts := registry.Options{Seed: seed}
	primaryDir := ""
	if wl.durable {
		if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(scratchRoot, "wal-")
		if err != nil {
			return nil, err
		}
		d.dir = dir
		primaryDir = filepath.Join(dir, "primary")
		// Keep the whole journal in the WAL so the audit can replay it.
		opts.SnapshotEvery = -1
	}
	reg, err := registry.Open(primaryDir, opts)
	if err != nil {
		return nil, fmt.Errorf("open registry: %w", err)
	}
	d.reg = reg

	fleetSeed := seed
	if wl.fleetSeed != 0 {
		fleetSeed = wl.fleetSeed
	}
	if err := enrollFleet(reg, wl, fleetSeed); err != nil {
		return nil, err
	}
	params := silicon.DefaultParams()
	for i := 0; i < wl.chips; i++ {
		d.ids = append(d.ids, chipID(i))
		d.devices = append(d.devices, fleet.Chip(fleetSeed, i, params, wl.width))
	}

	if wl.durable {
		if err := d.startReplication(opts); err != nil {
			return nil, err
		}
	}

	d.srv = netauth.NewServerWithRegistry(challengesPerSession, seed, reg)
	d.srv.SetSpanRecorder(dtrace.Default)
	d.srv.SetDrainTimeout(time.Second)
	if wl.keyexEvery > 0 {
		if err := d.srv.SetKeyExchange(keyexConfig); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.addr = ln.Addr().String()
	d.serveDone = make(chan struct{})
	go func() {
		defer close(d.serveDone)
		_ = d.srv.Serve(ln)
	}()

	d.newClients()
	if err := d.warmUp(); err != nil {
		return nil, err
	}
	ok = true
	return d, nil
}

func chipID(i int) string { return fmt.Sprintf("chip-%d", i) }

// enrollFleet enrolls chips 0 … wl.chips-1 of the fleet fabricated from
// fleetSeed into reg, with V/T-hardened β when the workload asks for it.
func enrollFleet(reg *registry.Registry, wl workload, fleetSeed uint64) error {
	cfg := fleet.Config{XORWidth: wl.width, Seed: fleetSeed, IDPrefix: "chip-", Chips: wl.chips}
	if wl.hardened {
		cfg.Enroll = core.DefaultEnrollConfig()
		cfg.Enroll.Conditions = silicon.Corners()
	}
	if _, err := fleet.Run(cfg, reg); err != nil {
		return fmt.Errorf("enroll fleet: %w", err)
	}
	return nil
}

// startReplication attaches a strict quorum-of-one primary to d.reg and
// catches an fsyncing follower up to it over loopback TCP.
func (d *deployment) startReplication(opts registry.Options) error {
	d.primary = repl.NewPrimary(d.reg, repl.PrimaryConfig{Quorum: 1, Strict: true})
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.primaryDone = make(chan struct{})
	go func() {
		defer close(d.primaryDone)
		_ = d.primary.Serve(rln)
	}()
	freg, err := registry.Open(filepath.Join(d.dir, "follower"), opts)
	if err != nil {
		return fmt.Errorf("open follower registry: %w", err)
	}
	d.freg = freg
	f := repl.NewFollower(freg, rln.Addr().String(), repl.FollowerConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	d.stopFollower = cancel
	d.followerDone = make(chan struct{})
	go func() {
		defer close(d.followerDone)
		f.Run(ctx)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for f.Status().State != repl.StateStreaming || freg.Seq() < d.reg.Seq() {
		if time.Now().After(deadline) {
			return errors.New("follower did not catch up within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// newClients splits the fleet round-robin over the workload's clients.
func (d *deployment) newClients() {
	for i := 0; i < d.wl.clients; i++ {
		cl := &client{d: d}
		for j := i; j < len(d.ids); j += d.wl.clients {
			cl.chips = append(cl.chips, j)
		}
		cl.visits = make([]int, len(cl.chips))
		cl.c = &netauth.V2Client{
			Addr:        d.addr,
			Policy:      netauth.RetryPolicy{MaxAttempts: 1},
			RequireV2:   true,
			Jitter:      rng.New(d.seed).Fork("client", i),
			DialContext: cl.dial,
		}
		d.clients = append(d.clients, cl)
	}
}

// warmUp runs one op per chip on every client, so connections, pools and
// the follower link are live before anything is timed.
func (d *deployment) warmUp() error {
	ctx := context.Background()
	for _, cl := range d.clients {
		cl.t = tally{}
		for range cl.chips {
			cl.op(ctx, false)
		}
		d.warm.add(&cl.t)
	}
	if d.warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed: %v", d.warm.failed, d.warm.attempted, d.warm.firstErr)
	}
	return nil
}

// close stops every goroutine the deployment started, waits for them, and
// removes its WAL directory.  Safe on a partially built deployment.
func (d *deployment) close() {
	for _, cl := range d.clients {
		cl.c.Close()
	}
	if d.srv != nil {
		d.srv.Close()
		<-d.serveDone
	}
	if d.stopFollower != nil {
		d.stopFollower()
		<-d.followerDone
	}
	if d.primary != nil {
		d.primary.Close()
		<-d.primaryDone
	}
	if d.freg != nil {
		_ = d.freg.Close()
	}
	if d.reg != nil {
		_ = d.reg.Close()
	}
	if d.dir != "" {
		_ = os.RemoveAll(d.dir)
	}
}
