package netauth

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"xorpuf/internal/challenge"
	"xorpuf/internal/keyex"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
	"xorpuf/internal/wire"
)

// startKeyexServer is startServer with the key exchange enabled.
func startKeyexServer(t *testing.T, numChallenges int, cfg keyex.Config) (addr string, srv *Server, chip *silicon.Chip) {
	t.Helper()
	addr, srv, chip = startServer(t, numChallenges)
	if err := srv.SetKeyExchange(cfg); err != nil {
		t.Fatal(err)
	}
	return addr, srv, chip
}

func keyexClient(addr string, chip *silicon.Chip, cond silicon.Condition) *V2Client {
	return &V2Client{
		Addr: addr, ChipID: "chip-A", Device: chip, Cond: cond,
		Timeout: 10 * time.Second,
	}
}

func TestKeyExchangeOverTCP(t *testing.T) {
	cfg := keyex.Config{M: 7, T: 8}
	addr, srv, chip := startKeyexServer(t, 30, cfg)

	before := srv.ChipStatus("chip-A").Issued
	ss, err := keyexClient(addr, chip, silicon.Nominal).Establish(context.Background())
	if err != nil {
		t.Fatalf("Establish: %v", err)
	}
	defer ss.Close()

	if ss.Result.Cipher != keyex.CipherChaCha20Poly1305 {
		t.Errorf("negotiated cipher %q", ss.Result.Cipher)
	}
	if ss.Result.Challenges != cfg.N() {
		t.Errorf("burned %d challenges, want %d", ss.Result.Challenges, cfg.N())
	}
	if ss.Result.Corrected > cfg.T {
		t.Errorf("corrected %d > T=%d", ss.Result.Corrected, cfg.T)
	}
	if ss.Result.Session == "" {
		t.Error("empty session ID")
	}
	// Key-derivation challenges burn from the same budget accounting as
	// auth challenges.
	if after := srv.ChipStatus("chip-A").Issued; after != before+cfg.N() {
		t.Errorf("issued went %d → %d, want +%d", before, after, cfg.N())
	}

	// Authentication rides inside the encrypted channel.
	res, err := ss.Authenticate()
	if err != nil {
		t.Fatalf("encrypted Authenticate: %v", err)
	}
	if !res.Approved || res.Mismatches != 0 || res.Challenges != 30 {
		t.Errorf("encrypted auth: %+v", res)
	}

	// Payloads round-trip with an end-to-end digest check.
	if err := ss.SendPayload([]byte("telemetry batch 0017: all sensors nominal")); err != nil {
		t.Fatalf("SendPayload: %v", err)
	}
	if err := ss.SendPayload(bytes.Repeat([]byte{0xA5}, 64<<10)); err != nil {
		t.Fatalf("SendPayload 64k: %v", err)
	}
	if err := ss.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestSecureSessionAuthenticateBatch pipelines batches of 1, 4 and 16
// sessions inside one channel: every stream of the genuine chip is approved
// at zero HD, and each lands in the server's session ring as one ok
// netauth.session record.
func TestSecureSessionAuthenticateBatch(t *testing.T) {
	addr, srv, chip := startKeyexServer(t, 30, keyex.Config{M: 7, T: 8})
	ss, err := keyexClient(addr, chip, silicon.Nominal).Establish(context.Background())
	if err != nil {
		t.Fatalf("Establish: %v", err)
	}
	defer ss.Close()
	okSessions := func() int {
		n := 0
		for _, sp := range srv.SessionRecorder().Spans() {
			if sp.Name == "netauth.session" && sp.Status == "ok" {
				n++
			}
		}
		return n
	}
	for _, k := range []int{1, 4, 16} {
		before := okSessions()
		res, err := ss.AuthenticateBatch(k)
		if err != nil {
			t.Fatalf("AuthenticateBatch(%d): %v", k, err)
		}
		if len(res) != k {
			t.Fatalf("AuthenticateBatch(%d) returned %d results", k, len(res))
		}
		for i, r := range res {
			if !r.Approved || r.Mismatches != 0 || r.Challenges != 30 || r.Attempts != 1 {
				t.Errorf("batch %d stream %d: %+v, want zero-HD approval of 30 challenges", k, i, r)
			}
		}
		if got := okSessions() - before; got != k {
			t.Errorf("batch %d added %d ok session records, want %d", k, got, k)
		}
	}
	if err := ss.SendPayload([]byte("after the batches")); err != nil {
		t.Fatalf("SendPayload: %v", err)
	}
}

func TestKeyExchangeAtStressedCorner(t *testing.T) {
	// The default production geometry: BCH(255,·,12).  The stressed V/T
	// corner flips more selected-CRP bits than nominal; T must absorb them.
	addr, _, chip := startKeyexServer(t, 30, keyex.DefaultConfig())
	corner := silicon.Condition{VDD: 0.8, TempC: 60}
	ss, err := keyexClient(addr, chip, corner).Establish(context.Background())
	if err != nil {
		t.Fatalf("Establish at %+v: %v", corner, err)
	}
	defer ss.Close()
	if res, err := ss.Authenticate(); err != nil || !res.Approved {
		t.Fatalf("encrypted auth at corner: res=%+v err=%v", res, err)
	}
	t.Logf("corner establish corrected %d/%d bits", ss.Result.Corrected, keyex.DefaultConfig().T)
}

// TestKeyexWrongKeyRejected plays the modeling adversary: it speaks the
// handshake correctly but cannot reproduce the key, so it sends a bogus
// confirmation MAC.  The server must answer with a terminal structured
// key_mismatch, count it toward lockout, and never send its own MAC.
func TestKeyexWrongKeyRejected(t *testing.T) {
	addr, srv, _ := startKeyexServer(t, 30, keyex.Config{M: 7, T: 8})

	rc := dialRaw(t, addr)
	rc.send(&wire.Msg{Type: wire.TKeyexInit, ChipID: "chip-A", Caps: wire.CapChaCha20Poly1305})
	offer := rc.expect(wire.TKeyexOffer)
	rc.send(&wire.Msg{Type: wire.TKeyexConfirm, Session: offer.Session, MAC: make([]byte, wire.MACLen)})

	_, err := rc.recv()
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want ProtocolError", err)
	}
	if pe.Code != CodeKeyMismatch || pe.Retryable {
		t.Fatalf("got [%s retryable=%v], want terminal %s", pe.Code, pe.Retryable, CodeKeyMismatch)
	}
	if st := srv.ChipStatus("chip-A"); st.ConsecutiveDenials != 1 {
		t.Errorf("consecutive denials = %d, want 1 (keyex rejection counts)", st.ConsecutiveDenials)
	}
}

// TestKeyexLockoutAfterRepeatedMismatches: K failed key confirmations lock
// the chip exactly like K denied authentications.
func TestKeyexLockoutAfterRepeatedMismatches(t *testing.T) {
	addr, srv, _ := startKeyexServer(t, 30, keyex.Config{M: 7, T: 8})
	srv.SetLockout(2)

	badHandshake := func() *ProtocolError {
		rc := dialRaw(t, addr)
		rc.send(&wire.Msg{Type: wire.TKeyexInit, ChipID: "chip-A"})
		offer, err := rc.recv()
		var pe *ProtocolError
		if errors.As(err, &pe) {
			return pe
		}
		if err != nil {
			t.Fatal(err)
		}
		rc.send(&wire.Msg{Type: wire.TKeyexConfirm, Session: offer.Session, MAC: make([]byte, wire.MACLen)})
		_, err = rc.recv()
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want ProtocolError", err)
		}
		return pe
	}

	if pe := badHandshake(); pe.Code != CodeKeyMismatch {
		t.Fatalf("first failure code %s", pe.Code)
	}
	if pe := badHandshake(); pe.Code != CodeKeyMismatch {
		t.Fatalf("second failure code %s", pe.Code)
	}
	if !srv.ChipStatus("chip-A").Locked {
		t.Fatal("chip not locked after K keyex failures")
	}
	if pe := badHandshake(); pe.Code != CodeLockedOut {
		t.Fatalf("post-lockout code %s, want %s", pe.Code, CodeLockedOut)
	}
}

// TestKeyexWireOutputNotSeedDeterministic guards the codeword entropy fix:
// two servers in bit-identical state (same seed, same enrollment, same
// deterministic challenge selection) must still emit different session IDs
// and different helper data, because both come from the kernel CSPRNG.  If
// the helper were a function of server state — as it was when the codeword
// came from the invertible SplitMix64 stream whose previous output went out
// on the wire as the session ID — an eavesdropper could reconstruct the
// codeword and with it every session key.
func TestKeyexWireOutputNotSeedDeterministic(t *testing.T) {
	cfg := keyex.Config{M: 7, T: 8}
	grab := func() (session, helper string) {
		addr, _, _ := startKeyexServer(t, 30, cfg)
		rc := dialRaw(t, addr)
		rc.send(&wire.Msg{Type: wire.TKeyexInit, ChipID: "chip-A"})
		offer := rc.expect(wire.TKeyexOffer)
		return string(offer.Session), string(offer.Helper)
	}
	s1, h1 := grab()
	s2, h2 := grab()
	if s1 == s2 {
		t.Errorf("identical-state servers issued the same session ID %q", s1)
	}
	if h1 == h2 {
		t.Error("identical-state servers issued identical helper data: codeword is a function of server state")
	}
}

// TestKeyexDowngradeStripped plays the active attacker from the cipher
// downgrade: a MITM that strips the capability list out of keyex_init so the
// server picks cipher "" and the session would silently complete with no
// encrypted channel.  The client must refuse the offer — it never offered
// a cipherless session.
func TestKeyexDowngradeStripped(t *testing.T) {
	addr, _, chip := startKeyexServer(t, 30, keyex.Config{M: 7, T: 8})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		cl, err := ln.Accept()
		if err != nil {
			return
		}
		defer cl.Close()
		up, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer up.Close()
		r := bufio.NewReader(cl)
		raw, err := wire.ReadRawFrame(r)
		if err != nil {
			return
		}
		var m wire.Msg
		if err := wire.Decode(raw, &m); err != nil {
			return
		}
		m.Caps = 0 // the downgrade: re-frame the init with no capabilities
		if _, err := up.Write(wire.AppendFrame(nil, &m)); err != nil {
			return
		}
		// Everything after the tampered init flows through untouched.
		go func() { _, _ = io.Copy(cl, up) }()
		_, _ = io.Copy(up, r)
	}()

	_, err = keyexClient(ln.Addr().String(), chip, silicon.Nominal).Establish(context.Background())
	if err == nil {
		t.Fatal("client accepted a capability-stripped (downgraded) handshake")
	}
	if !strings.Contains(err.Error(), "did not offer") {
		t.Fatalf("downgrade rejected with %v, want the cipher-not-offered error", err)
	}
}

func TestKeyexUnavailableWithoutConfig(t *testing.T) {
	addr, _, chip := startServer(t, 30) // no SetKeyExchange
	_, err := keyexClient(addr, chip, silicon.Nominal).Establish(context.Background())
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != CodeKeyexUnavailable || pe.Retryable {
		t.Fatalf("err = %v, want terminal %s", err, CodeKeyexUnavailable)
	}
}

// TestKeyexConfirmOnlyRawClient runs the handshake by hand with no
// capability bits: the server must offer no cipher and still complete
// mutual key confirmation — proving the wire format and the keyex package
// API agree bit-for-bit.
func TestKeyexConfirmOnlyRawClient(t *testing.T) {
	cfg := keyex.Config{M: 7, T: 8}
	addr, _, chip := startKeyexServer(t, 30, cfg)

	rc := dialRaw(t, addr)
	rc.send(&wire.Msg{Type: wire.TKeyexInit, ChipID: "chip-A"}) // no caps
	offerFrame, err := wire.ReadRawFrame(rc.br)
	if err != nil {
		t.Fatal(err)
	}
	var offer wire.Msg
	if err := wire.Decode(offerFrame, &offer); err != nil || offer.Type != wire.TKeyexOffer {
		t.Fatalf("want keyex_offer, got type 0x%02x (%v)", offer.Type, err)
	}
	if offer.Cipher != wire.CipherNone {
		t.Fatalf("offered cipher %d to a capability-less client", offer.Cipher)
	}
	if offer.M != cfg.M || offer.T != cfg.T {
		t.Fatalf("offered code (%d,%d), want (%d,%d)", offer.M, offer.T, cfg.M, cfg.T)
	}

	n := cfg.N()
	helper := wire.UnpackBits(nil, offer.Helper, n)
	bits := wire.UnpackBits(nil, offer.Packed, n*offer.Width)
	w := make([]uint8, n)
	for i := range w {
		w[i] = chip.ReadXOR(challenge.Challenge(bits[i*offer.Width:(i+1)*offer.Width]), silicon.Nominal)
	}
	master, _, err := keyex.Reproduce(cfg, w, helper)
	if err != nil {
		t.Fatalf("Reproduce: %v", err)
	}
	transcript := keyex.Transcript("chip-A", 0, offerFrame)
	keys := keyex.DeriveSession(master, transcript)
	mac := keyex.ConfirmMAC(keys, keyex.RoleDevice, transcript)
	rc.send(&wire.Msg{Type: wire.TKeyexConfirm, Session: offer.Session, MAC: mac[:]})

	accept := rc.expect(wire.TKeyexAccept)
	if !keyex.VerifyConfirm(keys, keyex.RoleServer, transcript, accept.MAC) {
		t.Fatal("server confirmation MAC failed to verify")
	}
}

// TestKeyexChallengesNeverOverlapAuth: the words burned for key derivation
// and those burned by subsequent authentications must be disjoint on the
// wire, not just in the registry's ledger.
func TestKeyexChallengesNeverOverlapAuth(t *testing.T) {
	addr, _, chip := startKeyexServer(t, 40, keyex.Config{M: 7, T: 8})
	ss, err := keyexClient(addr, chip, silicon.Nominal).Establish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	// Capture the keyex challenge set from a raw second handshake and the
	// auth set from the encrypted session.
	seen := make(map[string]bool)
	res, err := ss.Authenticate()
	if err != nil || !res.Approved {
		t.Fatalf("auth inside channel: res=%+v err=%v", res, err)
	}

	rc := dialRaw(t, addr)
	rc.send(&wire.Msg{Type: wire.TKeyexInit, ChipID: "chip-A"})
	offer := rc.expect(wire.TKeyexOffer)
	bits := wire.UnpackBits(nil, offer.Packed, offer.Count*offer.Width)
	for i := 0; i < offer.Count; i++ {
		c := challenge.Challenge(bits[i*offer.Width : (i+1)*offer.Width]).String()
		if seen[c] {
			t.Fatalf("challenge %s issued twice", c[:16])
		}
		seen[c] = true
	}

	// A plain authentication afterwards must avoid all of them too.
	res2, err := authOnce(addr, "chip-A", chip, silicon.Nominal, 5*time.Second)
	if err != nil || !res2.Approved {
		t.Fatalf("plain auth after keyex: res=%+v err=%v", res2, err)
	}
}

// TestEstablishHonorsContext: cancellation mid-handshake interrupts blocked
// I/O instead of hanging until the message timeout.
func TestEstablishHonorsContext(t *testing.T) {
	// A listener that accepts and then says nothing.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()

	chip := silicon.NewChip(rng.New(1), silicon.DefaultParams(), 4)
	c := keyexClient(ln.Addr().String(), chip, silicon.Nominal)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Establish(ctx)
	if err == nil {
		t.Fatal("Establish succeeded against a mute server")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}
