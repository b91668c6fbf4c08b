package fleet_test

import (
	"bufio"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"xorpuf/internal/challenge"
	"xorpuf/internal/core"
	"xorpuf/internal/netauth"
	"xorpuf/internal/registry"
	"xorpuf/internal/registry/fleet"
	"xorpuf/internal/silicon"
	"xorpuf/internal/wire"
)

// fastEnroll keeps per-chip enrollment cheap enough to do by the thousand in
// a test while still running the real Fig 6 pipeline.
func fastEnroll() core.EnrollConfig {
	cfg := core.DefaultEnrollConfig()
	cfg.TrainingSize = 400
	cfg.ValidationSize = 1500
	return cfg
}

func testFleetConfig(chips, workers int) fleet.Config {
	return fleet.Config{
		Chips:    chips,
		Workers:  workers,
		XORWidth: 2,
		Seed:     77,
		Enroll:   fastEnroll(),
	}
}

func modelsEqual(a, b *core.ChipModel) bool {
	if a.Width() != b.Width() || a.Stages() != b.Stages() ||
		a.Beta0 != b.Beta0 || a.Beta1 != b.Beta1 {
		return false
	}
	for i := range a.PUFs {
		p, q := a.PUFs[i], b.PUFs[i]
		if p.Thr0 != q.Thr0 || p.Thr1 != q.Thr1 {
			return false
		}
		for j := range p.Theta {
			if p.Theta[j] != q.Theta[j] {
				return false
			}
		}
	}
	return true
}

// TestDeterminismAcrossWorkerCounts is the pipeline's core promise: the
// enrolled fleet is a function of the seed alone, not of parallelism or
// scheduling.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	const chips = 6
	var regs [2]*registry.Registry
	for i, workers := range []int{1, 4} {
		r, err := registry.Open("", registry.Options{Seed: 1})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer r.Close()
		var calls int32
		var mu sync.Mutex
		cfg := testFleetConfig(chips, workers)
		cfg.Progress = func(done, total int) {
			mu.Lock()
			calls++
			mu.Unlock()
			if total != chips {
				t.Errorf("Progress total = %d, want %d", total, chips)
			}
		}
		rep, err := fleet.Run(cfg, r)
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		if rep.Enrolled != chips || rep.Skipped != 0 || rep.Failed != 0 {
			t.Fatalf("Run(workers=%d) report %+v", workers, rep)
		}
		if calls != chips {
			t.Fatalf("Progress called %d times, want %d", calls, chips)
		}
		regs[i] = r
	}
	for i := 0; i < chips; i++ {
		id := fmt.Sprintf("chip-%d", i)
		e1, e2 := regs[0].Lookup(id), regs[1].Lookup(id)
		if e1 == nil || e2 == nil {
			t.Fatalf("%s missing from one of the registries", id)
		}
		if !modelsEqual(e1.Model(), e2.Model()) {
			t.Fatalf("%s enrolled differently under 1 vs 4 workers", id)
		}
	}
}

// TestSkipExistingResumes verifies the pipeline can resume over a
// WAL-recovered registry: already-present chips are skipped, the remainder
// enrolled.
func TestSkipExistingResumes(t *testing.T) {
	dir := t.TempDir()
	r1, err := registry.Open(dir, registry.Options{Seed: 2, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if rep, err := fleet.Run(testFleetConfig(4, 2), r1); err != nil || rep.Enrolled != 4 {
		t.Fatalf("first Run: %+v, %v", rep, err)
	}
	// Hard stop (no Close); resume over the recovered registry with a
	// larger target.
	r2, err := registry.Open(dir, registry.Options{Seed: 2, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer r2.Close()
	cfg := testFleetConfig(10, 2)
	cfg.SkipExisting = true
	rep, err := fleet.Run(cfg, r2)
	if err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if rep.Enrolled != 6 || rep.Skipped != 4 || rep.Failed != 0 {
		t.Fatalf("resumed report %+v, want 6 enrolled / 4 skipped", rep)
	}
	if r2.Len() != 10 {
		t.Fatalf("Len = %d, want 10", r2.Len())
	}
	// Without SkipExisting the same run must report duplicate failures.
	rep, err = fleet.Run(testFleetConfig(10, 2), r2)
	if err == nil || rep.Failed != 10 {
		t.Fatalf("duplicate Run: %+v, err %v — want 10 failures", rep, err)
	}
}

// TestSkipExistingSkipsDeparted: a resurrected source whose range migrated
// away must treat departed chips as existing — re-enrolling one locally
// would fork its identity (and its never-reuse history) across two owners.
func TestSkipExistingSkipsDeparted(t *testing.T) {
	r, err := registry.Open("", registry.Options{Seed: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if rep, err := fleet.Run(testFleetConfig(4, 2), r); err != nil || rep.Enrolled != 4 {
		t.Fatalf("first Run: %+v, %v", rep, err)
	}
	// chips 1 and 2 migrate away (lexicographic range [chip-1, chip-3)).
	if err := r.CutoverSource("m1", 1, "chip-1", "chip-3", "new-owner:1"); err != nil {
		t.Fatalf("CutoverSource: %v", err)
	}
	cfg := testFleetConfig(4, 2)
	cfg.SkipExisting = true
	rep, err := fleet.Run(cfg, r)
	if err != nil {
		t.Fatalf("resumed Run over departed range: %v", err)
	}
	if rep.Skipped != 4 || rep.Enrolled != 0 || rep.Failed != 0 {
		t.Fatalf("resumed report %+v, want all 4 skipped", rep)
	}
	if r.Lookup("chip-1") != nil {
		t.Fatal("departed chip re-enrolled on the source")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	r, err := registry.Open("", registry.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if _, err := fleet.Run(fleet.Config{Chips: 0}, r); err == nil {
		t.Error("Chips=0 accepted")
	}
	if _, err := fleet.Run(fleet.Config{Chips: 1}, nil); err == nil {
		t.Error("nil registry accepted")
	}
}

// TestProviderDerivesFleetSilicon: the ID → silicon mapping re-enrollment
// uses hands back exactly the silicon fleet member i was fabricated with,
// and refuses IDs that name no fleet member.
func TestProviderDerivesFleetSilicon(t *testing.T) {
	params := silicon.DefaultParams()
	provide := fleet.Provider(77, params, 2)
	for _, i := range []int{0, 3} {
		got, err := provide(fmt.Sprintf("chip-%d", i))
		if err != nil {
			t.Fatalf("chip-%d: %v", i, err)
		}
		if !reflect.DeepEqual(got, fleet.Chip(77, i, params, 2)) {
			t.Errorf("chip-%d: provider silicon differs from fleet.Chip(77, %d)", i, i)
		}
	}
	if reflect.DeepEqual(fleet.Chip(77, 0, params, 2), fleet.Chip(77, 3, params, 2)) {
		t.Fatal("fleet members 0 and 3 are identical; the comparison above proves nothing")
	}
	for _, id := range []string{"", "chip-", "chip-x", "chip--1", "chip-1x", "board-1"} {
		if _, err := provide(id); err == nil {
			t.Errorf("malformed id %q accepted", id)
		}
	}
}

// grabChallenges opens a raw session, records the challenge set the server
// issues for chipID, and abandons the session (the challenges stay burned —
// Issue journals before sending).
func grabChallenges(t *testing.T, addr, chipID string) map[string]bool {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	hello := wire.AppendFrame(nil, &wire.Msg{Type: wire.THello, ChipID: chipID, Batch: 1})
	if _, err := conn.Write(hello); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	raw, err := wire.ReadRawFrame(bufio.NewReader(conn))
	if err != nil {
		t.Fatalf("read challenges: %v", err)
	}
	var frame wire.Msg
	if err := wire.Decode(raw, &frame); err != nil {
		t.Fatalf("parse frame: %v", err)
	}
	if frame.Type != wire.TChallenges {
		t.Fatalf("got frame type 0x%02x (%s), want challenges", frame.Type, frame.ErrMsg)
	}
	bits := wire.UnpackBits(nil, frame.Packed, frame.Width*frame.Count)
	set := make(map[string]bool, frame.Count)
	for i := 0; i < frame.Count; i++ {
		set[challenge.Challenge(bits[i*frame.Width:(i+1)*frame.Width]).String()] = true
	}
	return set
}

// TestKillAndRestartFleet is the subsystem acceptance test: enroll ≥1000
// chips through the parallel pipeline into a persistent registry, serve
// authentications against it, hard-stop the process state (no Close),
// recover from snapshot + WAL, and verify (a) every enrollment survived,
// (b) no previously issued challenge is ever reissued, (c) genuine and
// impostor verdicts are unchanged.
func TestKillAndRestartFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale test skipped in -short mode")
	}
	dir := t.TempDir()
	const (
		fleetSeed  = 77
		regSeed    = 5
		chips      = 1000
		perSession = 20
	)

	r1, err := registry.Open(dir, registry.Options{Seed: regSeed, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cfg := testFleetConfig(chips, 8)
	rep, err := fleet.Run(cfg, r1)
	if err != nil {
		t.Fatalf("fleet.Run: %v", err)
	}
	if rep.Enrolled != chips {
		t.Fatalf("enrolled %d of %d (failed %d)", rep.Enrolled, chips, rep.Failed)
	}
	// Compact now so recovery exercises snapshot + WAL tail together: the
	// enrollments live in the snapshot, the issuance journal in the tail.
	if err := r1.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}

	srv1 := netauth.NewServerWithRegistry(perSession, 9, r1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv1.Serve(ln) //nolint:errcheck
	addr := ln.Addr().String()

	// Authenticate a sample of genuine devices and one impostor.
	genuineIDs := []string{"chip-0", "chip-1", "chip-42", "chip-500", "chip-999"}
	for _, id := range genuineIDs {
		var idx int
		fmt.Sscanf(id, "chip-%d", &idx) //nolint:errcheck
		dev := fleet.Chip(fleetSeed, idx, silicon.DefaultParams(), 2)
		res, err := netauth.Authenticate(addr, id, dev, silicon.Nominal, 10*time.Second)
		if err != nil {
			t.Fatalf("genuine auth %s: %v", id, err)
		}
		if !res.Approved {
			t.Fatalf("genuine %s denied pre-restart (%d mismatches)", id, res.Mismatches)
		}
	}
	impostor := fleet.Chip(^uint64(fleetSeed), 0, silicon.DefaultParams(), 2)
	res, err := netauth.Authenticate(addr, "chip-7", impostor, silicon.Nominal, 10*time.Second)
	if err != nil {
		t.Fatalf("impostor auth: %v", err)
	}
	if res.Approved {
		t.Fatal("impostor approved pre-restart")
	}
	// Burn one more session's challenges for chip-7 and remember them.
	preChallenges := grabChallenges(t, addr, "chip-7")
	if len(preChallenges) != perSession {
		t.Fatalf("pre-restart session issued %d challenges, want %d", len(preChallenges), perSession)
	}

	// Pre-stop accounting to compare after recovery.
	type chipState struct{ issued, remaining int }
	preStatus := make(map[string]chipState)
	for _, id := range append(append([]string{}, genuineIDs...), "chip-7", "chip-300") {
		st := r1.Lookup(id).Status()
		preStatus[id] = chipState{st.Issued, st.Remaining}
	}

	// Hard stop: stop the listener but never Close the registry — its state
	// must survive on disk (snapshot + WAL tail) alone.
	srv1.Close()

	start := time.Now()
	r2, err := registry.Open(dir, registry.Options{Seed: regSeed, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer r2.Close()
	t.Logf("recovered %d chips in %v", r2.Len(), time.Since(start))

	// (a) Every enrollment survived, bit-exact.
	if r2.Len() != chips {
		t.Fatalf("recovered %d chips, want %d", r2.Len(), chips)
	}
	for _, id := range []string{"chip-0", "chip-321", "chip-999"} {
		e := r2.Lookup(id)
		if e == nil {
			t.Fatalf("%s missing after recovery", id)
		}
		if !modelsEqual(e.Model(), r1.Lookup(id).Model()) {
			t.Fatalf("%s model changed across restart", id)
		}
	}
	for id, want := range preStatus {
		st := r2.Lookup(id).Status()
		if st.Issued != want.issued || st.Remaining != want.remaining {
			t.Fatalf("%s accounting %+v after recovery, want %+v", id, st, want)
		}
	}

	srv2 := netauth.NewServerWithRegistry(perSession, 9, r2)
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(ln2) //nolint:errcheck
	defer srv2.Close()
	addr2 := ln2.Addr().String()

	// (b) The registry reopened with the SAME seed, so its selectors
	// regenerate the same candidate streams that produced every pre-stop
	// session — only the recovered used-challenge history prevents reissue.
	postChallenges := grabChallenges(t, addr2, "chip-7")
	if len(postChallenges) != perSession {
		t.Fatalf("post-restart session issued %d challenges, want %d", len(postChallenges), perSession)
	}
	for c := range postChallenges {
		if preChallenges[c] {
			t.Fatalf("challenge %s reissued after restart", c)
		}
	}

	// (c) Verdicts unchanged: genuine devices still approve, the impostor is
	// still denied.
	for _, id := range genuineIDs {
		var idx int
		fmt.Sscanf(id, "chip-%d", &idx) //nolint:errcheck
		dev := fleet.Chip(fleetSeed, idx, silicon.DefaultParams(), 2)
		res, err := netauth.Authenticate(addr2, id, dev, silicon.Nominal, 10*time.Second)
		if err != nil {
			t.Fatalf("genuine auth %s post-restart: %v", id, err)
		}
		if !res.Approved {
			t.Fatalf("genuine %s denied post-restart (%d mismatches)", id, res.Mismatches)
		}
	}
	res, err = netauth.Authenticate(addr2, "chip-7", impostor, silicon.Nominal, 10*time.Second)
	if err != nil {
		t.Fatalf("impostor auth post-restart: %v", err)
	}
	if res.Approved {
		t.Fatal("impostor approved post-restart")
	}
}
