package xorpuf_test

// Key-exchange end-to-end: the acceptance test for the reverse fuzzy-
// extractor subsystem.  One chip is enrolled into a persistent registry
// and served over real TCP with the key exchange enabled; a fielded device
// at the worst V/T corner then establishes a session key from single-shot
// noisy reads, authenticates inside the encrypted channel, and ships an
// integrity-checked payload.  The test asserts the subsystem's contract:
//
//   - the device and server keys agree (proved live by the mutual
//     key-confirmation MACs and the AEAD channel actually carrying data —
//     a key mismatch fails both);
//   - every key-derivation challenge is journaled burned before the helper
//     data leaves the server, survives a kill -9 (registry abandoned
//     without Close) and server restart, and is never issued again across
//     either protocol in either server incarnation;
//   - an adversary that knows the chip ID and the whole wire protocol but
//     not the silicon — a modeling attacker presenting a guessed key —
//     is rejected with a structured, terminal key_mismatch denial and
//     never sees the server's MAC.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"xorpuf/internal/challenge"
	"xorpuf/internal/core"
	"xorpuf/internal/keyex"
	"xorpuf/internal/netauth"
	"xorpuf/internal/registry"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
	"xorpuf/internal/wire"
)

const (
	e2eRegSeed    = 29
	e2eXOR        = 4
	e2ePerSession = 25
)

// e2eStressed is the paper's worst V/T corner: low supply, high
// temperature.  Key reproduction must work from one-shot reads here.
var e2eStressed = silicon.Condition{VDD: 0.8, TempC: 60}

// keyexRecorder wraps fielded silicon and logs every challenge the server
// sends to the device — auth and key-derivation alike — keyed by the wire
// bit-string.  Raw-protocol sessions (where no device runs) feed the same
// map via record(), so the never-reuse audit spans the full history.
type keyexRecorder struct {
	inner core.Device
	mu    *sync.Mutex
	seen  map[string]int
}

func (d keyexRecorder) ReadXOR(c challenge.Challenge, cond silicon.Condition) uint8 {
	d.record(c.String())
	return d.inner.ReadXOR(c, cond)
}

func (d keyexRecorder) record(word string) {
	d.mu.Lock()
	d.seen[word]++
	d.mu.Unlock()
}

func e2eSend(t *testing.T, conn net.Conn, m *wire.Msg) {
	t.Helper()
	if _, err := conn.Write(wire.AppendFrame(nil, m)); err != nil {
		t.Fatalf("raw client write: %v", err)
	}
}

func e2eRecv(t *testing.T, r *bufio.Reader) *wire.Msg {
	t.Helper()
	raw, err := wire.ReadRawFrame(r)
	if err != nil {
		t.Fatalf("raw client read: %v", err)
	}
	var m wire.Msg
	if err := wire.Decode(raw, &m); err != nil {
		t.Fatalf("raw client decode: %v", err)
	}
	return &m
}

func TestKeyExchangeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	kcfg := keyex.DefaultConfig()

	// --- Enrollment into a persistent registry, corner-hardened so the
	// model's predictions hold at the stressed corner.
	chip := silicon.NewChip(rng.New(101), silicon.DefaultParams(), e2eXOR)
	ecfg := core.DefaultEnrollConfig()
	ecfg.TrainingSize = 2000
	ecfg.ValidationSize = 5000
	ecfg.Conditions = silicon.Corners()
	enr, err := core.EnrollChip(chip, rng.New(102), ecfg)
	if err != nil {
		t.Fatal(err)
	}
	reg1, err := registry.Open(dir, registry.Options{Seed: e2eRegSeed})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg1.Register("chip-0", enr.Model, 0); err != nil {
		t.Fatal(err)
	}

	serve := func(reg *registry.Registry) (*netauth.Server, string) {
		srv := netauth.NewServerWithRegistry(e2ePerSession, e2eRegSeed, reg)
		if err := srv.SetKeyExchange(kcfg); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln) //nolint:errcheck
		return srv, ln.Addr().String()
	}
	srv1, addr1 := serve(reg1)

	var seenMu sync.Mutex
	seen := make(map[string]int)
	device := keyexRecorder{inner: chip, mu: &seenMu, seen: seen}
	client := func(addr string) *netauth.V2Client {
		return &netauth.V2Client{
			Addr: addr, ChipID: "chip-0", Device: device,
			Cond: e2eStressed, Timeout: 10 * time.Second,
		}
	}

	// --- Establish at the stressed corner: noisy one-shot reads, code-
	// offset reproduction, mutual key confirmation, channel upgrade.
	ss, err := client(addr1).Establish(context.Background())
	if err != nil {
		t.Fatalf("Establish at %+v: %v", e2eStressed, err)
	}
	if ss.Result.Challenges != kcfg.N() {
		t.Errorf("burned %d challenges, want %d", ss.Result.Challenges, kcfg.N())
	}
	if ss.Result.Corrected > kcfg.T {
		t.Errorf("corrected %d bits > T=%d", ss.Result.Corrected, kcfg.T)
	}
	if ss.Result.Cipher != keyex.CipherChaCha20Poly1305 {
		t.Errorf("negotiated cipher %q", ss.Result.Cipher)
	}
	t.Logf("key established at VDD=%.1fV %g°C: %d challenges, %d/%d bits corrected",
		e2eStressed.VDD, e2eStressed.TempC, ss.Result.Challenges, ss.Result.Corrected, kcfg.T)

	// The keys match end to end: authentication and an application payload
	// both cross the AEAD channel, which fails closed on any key mismatch.
	res, err := ss.Authenticate()
	if err != nil {
		t.Fatalf("encrypted Authenticate: %v", err)
	}
	if !res.Approved || res.Mismatches != 0 {
		t.Errorf("encrypted auth at stressed corner: %+v, want zero-HD approval", res)
	}
	if err := ss.SendPayload([]byte("sensor frame 0001: verified end to end")); err != nil {
		t.Fatalf("SendPayload: %v", err)
	}
	if err := ss.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}

	// --- The modeling adversary: speaks the full wire protocol for the
	// right chip ID, receives challenges and helper data (the extractor's
	// designed leakage), but cannot reproduce the key.  It must get a
	// structured terminal key_mismatch and never a server MAC.
	conn, err := net.Dial("tcp", addr1)
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	e2eSend(t, conn, &wire.Msg{Type: wire.TKeyexInit, ChipID: "chip-0"})
	offer := e2eRecv(t, r)
	if offer.Type != wire.TKeyexOffer {
		t.Fatalf("adversary got %+v, want keyex_offer", offer)
	}
	if offer.Count != kcfg.N() || len(offer.Helper) == 0 {
		t.Fatalf("offer shape: %d challenges, helper %d bytes", offer.Count, len(offer.Helper))
	}
	// These words were burned before the offer left the server; fold them
	// into the audit even though no device ever read them.
	bits := wire.UnpackBits(nil, offer.Packed, offer.Count*offer.Width)
	for i := 0; i < offer.Count; i++ {
		device.record(challenge.Challenge(bits[i*offer.Width : (i+1)*offer.Width]).String())
	}
	e2eSend(t, conn, &wire.Msg{Type: wire.TKeyexConfirm, Session: offer.Session,
		MAC: make([]byte, wire.MACLen)})
	denial := e2eRecv(t, r)
	if denial.Type != wire.TError || denial.Retryable || !strings.Contains(denial.ErrMsg, "key confirmation failed") {
		t.Fatalf("adversary verdict %+v, want terminal key_mismatch error", denial)
	}
	conn.Close()
	if got := srv1.ChipStatus("chip-0").ConsecutiveDenials; got != 1 {
		t.Errorf("adversary denial count %d, want 1 (counts toward lockout)", got)
	}

	// --- kill -9: tear the server down and abandon its registry without
	// Close, exactly as a crashed process would.  The WAL is the only
	// survivor.
	issuedBeforeKill := srv1.ChipStatus("chip-0").Issued
	if issuedBeforeKill < 2*kcfg.N()+e2ePerSession {
		t.Fatalf("issued %d before kill, want at least %d", issuedBeforeKill, 2*kcfg.N()+e2ePerSession)
	}
	srv1.Close()
	// reg1 is deliberately NOT closed: the process is dead.

	reg2, err := registry.Open(dir, registry.Options{Seed: e2eRegSeed})
	if err != nil {
		t.Fatalf("reopen after kill -9: %v", err)
	}
	defer reg2.Close()
	srv2, addr2 := serve(reg2)
	defer srv2.Close()
	if got := srv2.ChipStatus("chip-0").Issued; got != issuedBeforeKill {
		t.Fatalf("replayed burn history has %d issued, want %d — key-derivation burns lost across kill -9", got, issuedBeforeKill)
	}

	// --- Fresh keys on the restarted server still work at the corner…
	ss2, err := client(addr2).Establish(context.Background())
	if err != nil {
		t.Fatalf("post-restart Establish: %v", err)
	}
	if err := ss2.SendPayload([]byte("post-restart payload")); err != nil {
		t.Fatalf("post-restart SendPayload: %v", err)
	}
	if err := ss2.Close(); err != nil {
		t.Errorf("post-restart Close: %v", err)
	}

	// --- …and the audit holds: across both incarnations, authentication
	// and key derivation, and the adversary's abandoned handshake, no
	// challenge was issued twice.
	seenMu.Lock()
	defer seenMu.Unlock()
	total := 0
	for word, n := range seen {
		total++
		if n > 1 {
			t.Errorf("challenge %s issued %d times", word, n)
		}
	}
	if want := 3*kcfg.N() + e2ePerSession; total < want {
		t.Fatalf("audit saw %d distinct challenges, want at least %d", total, want)
	}
	t.Logf("audit: %d distinct challenges across restart, zero reuse", total)
}

// lockedDevice serialises one chip's reads: silicon.Chip's noise stream is
// not safe for concurrent use, and the soak's workers share each chip.
type lockedDevice struct {
	mu   sync.Mutex
	chip core.Device
}

func (d *lockedDevice) ReadXOR(c challenge.Challenge, cond silicon.Condition) uint8 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.chip.ReadXOR(c, cond)
}

// TestEncryptedSessionSoak is the race-detector workout for the channel
// stack: several devices establish keys and drive encrypted sessions
// concurrently against one server, cycling through every V/T corner, while
// the shared structures underneath — registry entries, selector state,
// telemetry instruments, the session trace ring — take the contention.
func TestEncryptedSessionSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("encrypted-session soak skipped in -short mode")
	}
	const (
		soakKeyChips    = 3
		soakKeyWorkers  = 4
		soakKeySessions = 6 // per worker
		soakKeyAuthN    = 20
	)
	kcfg := keyex.Config{M: 7, T: 10}

	srv := netauth.NewServer(soakKeyAuthN, 7)
	if err := srv.SetKeyExchange(kcfg); err != nil {
		t.Fatal(err)
	}
	ecfg := core.DefaultEnrollConfig()
	ecfg.TrainingSize = 1000
	ecfg.ValidationSize = 3000
	ecfg.Conditions = silicon.Corners()
	devices := make([]*lockedDevice, soakKeyChips)
	for i := range devices {
		chip := silicon.NewChip(rng.New(uint64(300+i)), silicon.DefaultParams(), 2)
		enr, err := core.EnrollChip(chip, rng.New(uint64(400+i)), ecfg)
		if err != nil {
			t.Fatal(err)
		}
		devices[i] = &lockedDevice{chip: chip}
		if err := srv.Register(fmt.Sprintf("chip-%d", i), enr.Model); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(srv.Close)
	addr := ln.Addr().String()

	corners := silicon.Corners()
	perChip := make([]int, soakKeyChips) // sessions routed to each chip
	var wg sync.WaitGroup
	for w := 0; w < soakKeyWorkers; w++ {
		for j := 0; j < soakKeySessions; j++ {
			perChip[(w+j*soakKeyWorkers)%soakKeyChips]++
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < soakKeySessions; j++ {
				chipIdx := (w + j*soakKeyWorkers) % soakKeyChips
				cond := corners[(w*soakKeySessions+j)%len(corners)]
				c := &netauth.V2Client{
					Addr: addr, ChipID: fmt.Sprintf("chip-%d", chipIdx),
					Device: devices[chipIdx], Cond: cond, Timeout: 10 * time.Second,
				}
				ss, err := c.Establish(context.Background())
				if err != nil {
					t.Errorf("worker %d session %d (%+v): Establish: %v", w, j, cond, err)
					return
				}
				res, err := ss.Authenticate()
				if err != nil || !res.Approved || res.Mismatches != 0 {
					t.Errorf("worker %d session %d (%+v): encrypted auth %+v, %v", w, j, cond, res, err)
				}
				payload := []byte(strings.Repeat("soak", 256+w*soakKeySessions+j))
				if err := ss.SendPayload(payload); err != nil {
					t.Errorf("worker %d session %d: payload: %v", w, j, err)
				}
				if err := ss.Close(); err != nil {
					t.Errorf("worker %d session %d: close: %v", w, j, err)
				}
			}
		}(w)
	}
	wg.Wait()

	// Budget accounting stayed exact under contention: every session burned
	// its key-derivation block plus one auth issuance, nothing double-
	// counted and nothing lost.
	for i := 0; i < soakKeyChips; i++ {
		want := perChip[i] * (kcfg.N() + soakKeyAuthN)
		if got := srv.ChipStatus(fmt.Sprintf("chip-%d", i)).Issued; got != want {
			t.Errorf("chip-%d issued %d challenges, want %d", i, got, want)
		}
	}
}
