package repl

import (
	"bufio"
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"xorpuf/internal/core"
	"xorpuf/internal/faultnet"
	"xorpuf/internal/registry"
	"xorpuf/internal/telemetry/dtrace"
	"xorpuf/internal/wire"
)

// syntheticModel mirrors the registry tests' cheap deterministic model:
// every challenge is predicted Stable0, so selection never stalls.
func syntheticModel(width, stages int) *core.ChipModel {
	m := &core.ChipModel{PUFs: make([]*core.PUFModel, width), Beta0: 1, Beta1: 1}
	for i := range m.PUFs {
		p := &core.PUFModel{Theta: make([]float64, stages+1), Thr0: 0.4, Thr1: 0.6}
		for j := range p.Theta {
			p.Theta[j] = float64((i+1)*(j+1)) * 1e-6
		}
		m.PUFs[i] = p
	}
	return m
}

const testRegSeed = 99

func openReg(t *testing.T, dir string) *registry.Registry {
	t.Helper()
	reg, err := registry.Open(dir, registry.Options{Seed: testRegSeed})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// cluster is a primary + one follower wired over a (possibly faulty) local
// TCP listener.
type cluster struct {
	primReg, follReg *registry.Registry
	prim             *Primary
	foll             *Follower
	cancel           context.CancelFunc
	runDone          chan struct{}
}

func startCluster(t *testing.T, primReg, follReg *registry.Registry, pcfg PrimaryConfig, fault *faultnet.Config) *cluster {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	prim := NewPrimary(primReg, pcfg)
	var serveLn net.Listener = ln
	fcfg := FollowerConfig{ReconnectMin: 10 * time.Millisecond, ReconnectMax: 100 * time.Millisecond}
	if fault != nil {
		serveLn = faultnet.WrapListener(ln, *fault)
	}
	go prim.Serve(serveLn) //nolint:errcheck
	foll := NewFollower(follReg, ln.Addr().String(), fcfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		foll.Run(ctx)
	}()
	c := &cluster{primReg: primReg, follReg: follReg, prim: prim, foll: foll,
		cancel: cancel, runDone: done}
	t.Cleanup(func() {
		cancel()
		prim.Close()
		<-done
	})
	return c
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSnapshotBootstrapAndStream(t *testing.T) {
	primReg := openReg(t, "")
	follReg := openReg(t, "")
	defer primReg.Close()
	defer follReg.Close()

	// Pre-connect history exercises the snapshot path.
	for _, id := range []string{"chip-a", "chip-b", "chip-c"} {
		if err := primReg.Register(id, syntheticModel(2, 16), 0); err != nil {
			t.Fatal(err)
		}
	}
	c := startCluster(t, primReg, follReg, PrimaryConfig{Quorum: 1, Strict: true}, nil)

	waitFor(t, "snapshot bootstrap", func() bool { return c.follReg.Len() == 3 })

	// Post-connect mutations exercise the record stream, and strict quorum 1
	// means Issue only returns after the follower durably applied the burn.
	if err := primReg.Register("chip-d", syntheticModel(2, 16), 0); err != nil {
		t.Fatal(err)
	}
	e := primReg.Lookup("chip-a")
	cs, _, err := e.Issue(5, 0)
	if err != nil || len(cs) != 5 {
		t.Fatalf("Issue under strict quorum: %d challenges, %v", len(cs), err)
	}
	// The ack the issuance waited on covers exactly this burn: the follower
	// must already account for all 5 words, with no further waiting.
	fe := follReg.Lookup("chip-a")
	if fe == nil {
		t.Fatal("chip-a missing on follower")
	}
	if got := fe.Status().Issued; got != 5 {
		t.Fatalf("follower sees %d issued challenges at ack time, want 5", got)
	}
	waitFor(t, "register record", func() bool { return follReg.Lookup("chip-d") != nil })

	if st := c.foll.Status(); st.State != StateStreaming {
		t.Fatalf("follower state %s, want %s", st.State, StateStreaming)
	}
	if st := c.prim.Status(); len(st.Followers) != 1 || st.Followers[0].Acked == 0 {
		t.Fatalf("primary status %+v, want one acked follower", st)
	}
}

func TestStrictQuorumRefusesWithoutFollowers(t *testing.T) {
	reg := openReg(t, "")
	defer reg.Close()
	prim := NewPrimary(reg, PrimaryConfig{Quorum: 1, Strict: true, AckTimeout: 50 * time.Millisecond})
	defer prim.Close()
	if err := reg.Register("chip-a", syntheticModel(2, 16), 0); err != nil {
		t.Fatal(err)
	}
	e := reg.Lookup("chip-a")
	before := e.Status().Issued
	if _, _, err := e.Issue(3, 0); err == nil {
		t.Fatal("Issue succeeded with strict quorum and no followers")
	}
	// Conservative failure: the challenges burn even though none were
	// released, so a retry can never hand out what the first call drew.
	if got := e.Status().Issued; got != before+3 {
		t.Fatalf("burned %d challenges across refused issuance, want %d", got-before, 3)
	}
}

func TestSemiSyncServesStandalone(t *testing.T) {
	reg := openReg(t, "")
	defer reg.Close()
	prim := NewPrimary(reg, PrimaryConfig{Quorum: 1})
	defer prim.Close()
	if err := reg.Register("chip-a", syntheticModel(2, 16), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Lookup("chip-a").Issue(3, 0); err != nil {
		t.Fatalf("semi-sync standalone issuance failed: %v", err)
	}
}

func TestFaultyLinkDegradesNeverForks(t *testing.T) {
	primReg := openReg(t, "")
	follReg := openReg(t, "")
	defer primReg.Close()
	defer follReg.Close()

	for _, id := range []string{"chip-a", "chip-b"} {
		if err := primReg.Register(id, syntheticModel(2, 16), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Resets, stalls, corruption, and partial writes on every link the
	// follower ever gets; the follower must reconnect through it and end
	// sequence-exact, never applying a record out of order.
	c := startCluster(t, primReg, follReg, PrimaryConfig{Quorum: 0}, &faultnet.Config{
		Seed: 7, ResetProb: 0.01, CorruptProb: 0.01, PartialWriteProb: 0.005,
		StallProb: 0.002, Stall: 5 * time.Millisecond,
	})

	for i := 0; i < 40; i++ {
		id := []string{"chip-a", "chip-b"}[i%2]
		if _, _, err := primReg.Lookup(id).Issue(2, 0); err != nil {
			t.Fatalf("issue %d: %v", i, err)
		}
	}
	target := primReg.Seq()
	waitFor(t, "follower convergence through faults", func() bool {
		return follReg.Seq() == target
	})
	for _, id := range []string{"chip-a", "chip-b"} {
		p, f := primReg.Lookup(id).Status(), follReg.Lookup(id).Status()
		if p.Issued != f.Issued {
			t.Fatalf("%s: primary %d issued, follower %d — log forked", id, p.Issued, f.Issued)
		}
	}
	if c.foll.Status().Disconnects == 0 {
		t.Skip("fault schedule produced no disconnect; seeds changed?")
	}
}

func TestPromoteNeverReusesChallenge(t *testing.T) {
	primReg := openReg(t, "")
	follReg := openReg(t, "")
	defer primReg.Close()
	defer follReg.Close()
	if err := primReg.Register("chip-a", syntheticModel(2, 16), 0); err != nil {
		t.Fatal(err)
	}
	c := startCluster(t, primReg, follReg, PrimaryConfig{Quorum: 1, Strict: true}, nil)
	waitFor(t, "follower link", func() bool { return c.foll.Status().State == StateStreaming })

	issued := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		cs, _, err := primReg.Lookup("chip-a").Issue(4, 0)
		if err != nil {
			t.Fatalf("primary issue %d: %v", i, err)
		}
		for _, ch := range cs {
			issued[ch] = true
		}
	}

	// Primary dies; follower is promoted and issues for the same chip.
	c.prim.Close()
	c.cancel()
	<-c.runDone
	seq := c.foll.Promote()
	if seq != primReg.Seq() {
		t.Fatalf("promoted at seq %d, primary was at %d", seq, primReg.Seq())
	}
	for i := 0; i < 10; i++ {
		cs, _, err := follReg.Lookup("chip-a").Issue(4, 0)
		if err != nil {
			t.Fatalf("promoted issue %d: %v", i, err)
		}
		for _, ch := range cs {
			if issued[ch] {
				t.Fatalf("challenge %#x issued twice across failover", ch)
			}
			issued[ch] = true
		}
	}
	if got := c.foll.Status().State; got != StatePromoted {
		t.Fatalf("follower state %s, want %s", got, StatePromoted)
	}
}

func TestDivergedFollowerRefused(t *testing.T) {
	primReg := openReg(t, "")
	follReg := openReg(t, "")
	defer primReg.Close()
	defer follReg.Close()
	// The "follower" has local history the primary never saw.
	if err := follReg.Register("rogue", syntheticModel(2, 16), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := follReg.Lookup("rogue").Issue(3, 0); err != nil {
		t.Fatal(err)
	}
	c := startCluster(t, primReg, follReg, PrimaryConfig{}, nil)
	waitFor(t, "diverged refusal", func() bool {
		st := c.foll.Status()
		return st.State == StateDegraded && strings.Contains(st.LastError, CodeDiverged)
	})
	if follReg.Lookup("rogue") == nil {
		t.Fatal("refused follower lost local state")
	}
}

func TestApplyFailureNotAcked(t *testing.T) {
	primReg := openReg(t, "")
	follReg := openReg(t, "")
	defer primReg.Close()
	if err := primReg.Register("chip-a", syntheticModel(2, 16), 0); err != nil {
		t.Fatal(err)
	}
	c := startCluster(t, primReg, follReg, PrimaryConfig{}, nil)
	waitFor(t, "bootstrap", func() bool { return follReg.Len() == 1 })

	// Close the follower's registry out from under it: the next apply must
	// fail, degrade the follower, and never be acknowledged.
	follReg.Close()
	if _, _, err := primReg.Lookup("chip-a").Issue(2, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "degraded follower", func() bool {
		st := c.foll.Status()
		return st.State == StateDegraded && st.LastError != ""
	})
	st := c.foll.Status()
	if !strings.Contains(st.LastError, CodeApply) && !strings.Contains(st.LastError, "closed") {
		t.Fatalf("degraded with %q, want a structured apply error", st.LastError)
	}
	if st.AppliedSeq >= primReg.Seq() {
		t.Fatalf("follower claims applied seq %d ≥ primary %d after failed apply",
			st.AppliedSeq, primReg.Seq())
	}
}

func TestSeqGapIsTerminal(t *testing.T) {
	reg := openReg(t, "")
	defer reg.Close()
	// A record that skips ahead must be refused with ErrSeqGap.
	err := reg.ApplyReplicated(5, 4 /* recDeregister */, append([]byte{6, 0}, "chip-a"...))
	if !errors.Is(err, registry.ErrSeqGap) {
		t.Fatalf("gap apply returned %v, want ErrSeqGap", err)
	}
}

func TestTraceMarkSpansCrossProcesses(t *testing.T) {
	primReg := openReg(t, "")
	follReg := openReg(t, "")
	defer primReg.Close()
	defer follReg.Close()
	if err := primReg.Register("chip-a", syntheticModel(2, 16), 0); err != nil {
		t.Fatal(err)
	}
	c := startCluster(t, primReg, follReg, PrimaryConfig{Quorum: 1, Strict: true}, nil)
	waitFor(t, "snapshot bootstrap", func() bool { return c.follReg.Len() == 1 })

	tid := dtrace.NewTraceID()
	root := dtrace.Context{Trace: tid, Span: dtrace.NewSpanID()}
	ctx := dtrace.Inject(context.Background(), root)
	e := primReg.Lookup("chip-a")
	if _, _, err := e.IssueCtx(ctx, 3, 0); err != nil {
		t.Fatalf("traced Issue under strict quorum: %v", err)
	}

	// The quorum-wait span is recorded synchronously by the primary; the
	// follower's apply-ack span arrives via the best-effort fTraceMark frame.
	var wait, ack *dtrace.Span
	waitFor(t, "quorum_wait and apply_ack spans", func() bool {
		wait, ack = nil, nil
		for _, v := range dtrace.Default.ByTrace(tid) {
			v := v
			switch v.Name {
			case "repl.quorum_wait":
				wait = &v
			case "repl.apply_ack":
				ack = &v
			}
		}
		return wait != nil && ack != nil
	})
	if wait.Parent != root.Span {
		t.Fatalf("quorum_wait parent %s, want issuing span %s", wait.Parent, root.Span)
	}
	// The follower span nests under the quorum wait, so a collector renders
	// gateway → shard → follower as one tree.
	if ack.Parent != wait.ID {
		t.Fatalf("apply_ack parent %s, want quorum_wait span %s", ack.Parent, wait.ID)
	}
	if ack.Attrs["seq"] != wait.Attrs["seq"] {
		t.Fatalf("seq attrs diverge: ack %q, wait %q", ack.Attrs["seq"], wait.Attrs["seq"])
	}

	// An untraced issuance must not grow the trace's span set.
	n := len(dtrace.Default.ByTrace(tid))
	if _, _, err := e.Issue(2, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := len(dtrace.Default.ByTrace(tid)); got != n {
		t.Fatalf("untraced issuance added spans: %d -> %d", n, got)
	}
}

// TestReceiveSnapshotGrowsAsChunksArrive: a snap-begin may announce up to
// 4 GiB, but the receiver commits memory only for the chunks that actually
// arrive, and a stream that ends short of the announcement is refused.
func TestReceiveSnapshotGrowsAsChunksArrive(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		_ = wire.WriteOpaque(server, fSnapChunk, []byte("the only chunk"))
		_ = wire.WriteOpaque(server, fSnapEnd, nil)
		server.Close()
	}()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var buf []byte
	_, err := ReceiveSnapshot(client, bufio.NewReader(client), &buf, fSnapChunk, fSnapEnd, maxSnapshotBytes, time.Second)
	runtime.ReadMemStats(&after)
	var le *LinkError
	if !errors.As(err, &le) || le.Code != CodeProto {
		t.Fatalf("short snapshot: err = %v, want a proto LinkError", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("announced 4 GiB snapshot allocated %d bytes up front", alloc)
	}
}
