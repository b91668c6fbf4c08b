package netauth

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"xorpuf/internal/challenge"
	"xorpuf/internal/core"
	"xorpuf/internal/keyex"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
	"xorpuf/internal/wire"
)

// waitGoroutines polls until the goroutine count drops back to at most
// want, failing the test if it never does.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d running, want ≤ %d", runtime.NumGoroutine(), want)
}

// TestOversizedHelloTerminatedCleanly: a frame header announcing more
// than the payload cap is refused at the header, before the server would
// buffer a single payload byte.
func TestOversizedHelloTerminatedCleanly(t *testing.T) {
	addr, srv, _ := startServer(t, 5)
	rc := dialRaw(t, addr)
	rc.sendBytes([]byte{wire.Magic, wire.THello, 0, 0xFF, 0xFF, 0xFF, 0x7F})
	expectRefusal(t, rc, CodeBadMessage, true)
	if issued := srv.ChipStatus("chip-A").Issued; issued != 0 {
		t.Errorf("oversized hello burned %d challenges", issued)
	}
}

// TestDuplicateHelloRejected: a hello that reopens a stream still in
// flight is a protocol violation, refused before it can burn challenges.
func TestDuplicateHelloRejected(t *testing.T) {
	addr, srv, _ := startServer(t, 5)
	rc, ch := rawHello(t, addr)
	burned := srv.ChipStatus("chip-A").Issued
	rc.send(&wire.Msg{Type: wire.THello, Stream: ch.Stream, ChipID: "chip-A", Batch: 1})
	expectRefusal(t, rc, CodeBadMessage, true)
	if got := srv.ChipStatus("chip-A").Issued; got != burned {
		t.Errorf("duplicate hello burned challenges: %d → %d", burned, got)
	}
}

func TestSilentClientTimesOutWithoutLeak(t *testing.T) {
	addr, srv, _ := startServer(t, 5)
	srv.SetTimeout(150 * time.Millisecond)
	baseline := runtime.NumGoroutine()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Say nothing.  The per-message deadline must fire and the handler
	// must close the connection and exit.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if n, err := conn.Read(make([]byte, 64)); err != io.EOF {
		t.Fatalf("silent client: read %d bytes, err %v; want the server to close (EOF)", n, err)
	}
	conn.Close()
	waitGoroutines(t, baseline)
}

// TestVerdictDenialExplicitOnWire: a denial is spelled out on the wire —
// the verdict frame's flags byte is present with the approved bit clear,
// next to the mismatch count — never inferred from a missing field.
func TestVerdictDenialExplicitOnWire(t *testing.T) {
	addr, _, _ := startServer(t, 5)
	rc, ch := rawHello(t, addr)
	// All-zero and all-one answers cannot both be right; whichever is sent,
	// the verdict must carry the explicit flag and count.
	rc.send(&wire.Msg{Type: wire.TResponses, Stream: ch.Stream, Session: ch.Session,
		Count: ch.Count, Packed: make([]byte, wire.PackedLen(ch.Count))})
	raw, err := wire.ReadRawFrame(rc.br)
	if err != nil {
		t.Fatal(err)
	}
	var m wire.Msg
	if err := wire.Decode(raw, &m); err != nil || m.Type != wire.TVerdict {
		t.Fatalf("got %+v (%v), want a verdict frame", m, err)
	}
	// magic, type, 1-byte stream, 4-byte length, then the flags byte.
	flags := raw[7]
	if m.Approved != (flags&1 == 1) || (!m.Approved && m.Mismatches == 0) {
		t.Errorf("verdict flags %#x approved=%v mismatches=%d: denial not explicit", flags, m.Approved, m.Mismatches)
	}
}

func TestRetryClientRecoversFromTransientDialFailures(t *testing.T) {
	addr, _, chip := startServer(t, 30)
	dials := 0
	var d net.Dialer
	c := &V2Client{
		Addr: addr, ChipID: "chip-A", Device: chip, Cond: silicon.Nominal,
		Timeout: 5 * time.Second,
		Policy:  RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		Jitter:  rng.New(1),
		DialContext: func(ctx context.Context, network, a string) (net.Conn, error) {
			dials++
			if dials <= 2 {
				return nil, errors.New("synthetic dial failure")
			}
			return d.DialContext(ctx, network, a)
		},
	}
	defer c.Close()
	res, err := c.Authenticate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approved || res.Attempts != 3 {
		t.Errorf("result %+v, want approved on attempt 3", res)
	}
}

func TestTerminalErrorShortCircuitsRetries(t *testing.T) {
	addr, _, chip := startServer(t, 10)
	c := &V2Client{
		Addr: addr, ChipID: "no-such-chip", Device: chip, Cond: silicon.Nominal,
		Timeout: 5 * time.Second,
		Policy:  RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond},
		Jitter:  rng.New(2),
	}
	defer c.Close()
	res, err := c.Authenticate(context.Background())
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != CodeUnknownChip {
		t.Fatalf("err = %v, want unknown_chip ProtocolError", err)
	}
	if Transient(err) {
		t.Error("unknown_chip classified transient")
	}
	if res.Attempts != 1 {
		t.Errorf("terminal error took %d attempts, want 1 (no retries burned)", res.Attempts)
	}
}

func TestLockoutAfterConsecutiveDenials(t *testing.T) {
	const k = 3
	addr, srv, _ := startServer(t, 20)
	srv.SetLockout(k)
	impostor := silicon.NewChip(rng.New(999), silicon.DefaultParams(), 4)

	for i := 0; i < k; i++ {
		res, err := Authenticate(addr, "chip-A", impostor, silicon.Nominal, 5*time.Second)
		if err != nil {
			t.Fatalf("denial %d: %v", i+1, err)
		}
		if res.Approved {
			t.Fatalf("impostor approved on attempt %d", i+1)
		}
	}
	st := srv.ChipStatus("chip-A")
	if !st.Locked || st.ConsecutiveDenials != k {
		t.Fatalf("after %d denials: %+v, want locked", k, st)
	}
	burned := st.Issued

	// The locked chip gets a terminal error and burns no challenges.
	_, err := Authenticate(addr, "chip-A", impostor, silicon.Nominal, 5*time.Second)
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != CodeLockedOut || pe.Retryable {
		t.Fatalf("locked chip err = %v, want terminal locked_out", err)
	}
	if got := srv.ChipStatus("chip-A").Issued; got != burned {
		t.Errorf("locked-out attempt burned challenges: %d → %d", burned, got)
	}

	// An operator unlock restores service.
	if !srv.Unlock("chip-A") {
		t.Fatal("Unlock reported chip not locked")
	}
	if _, err := Authenticate(addr, "chip-A", impostor, silicon.Nominal, 5*time.Second); err != nil {
		t.Fatalf("after unlock: %v", err)
	}
}

func TestThrottleEnforcesMinimumInterval(t *testing.T) {
	addr, srv, chip := startServer(t, 10)
	srv.SetThrottle(time.Hour)
	if _, err := Authenticate(addr, "chip-A", chip, silicon.Nominal, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	_, err := Authenticate(addr, "chip-A", chip, silicon.Nominal, 5*time.Second)
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != CodeThrottled || !pe.Retryable {
		t.Fatalf("err = %v, want retryable throttled", err)
	}
}

// TestMaxConnsRefusesWithBusy: at the connection cap the server refuses
// with a retryable busy error frame, and the same client's retry succeeds
// once a slot frees up.
func TestMaxConnsRefusesWithBusy(t *testing.T) {
	addr, srv, chip := startServer(t, 10)
	srv.SetMaxConns(1)
	srv.SetTimeout(2 * time.Second)

	// Occupy the only slot with a half-open session.
	hog, _ := rawHello(t, addr)

	c := &V2Client{Addr: addr, ChipID: "chip-A", Device: chip, Cond: silicon.Nominal,
		Timeout: 2 * time.Second, Policy: RetryPolicy{MaxAttempts: 1}}
	defer c.Close()
	_, err := c.Authenticate(context.Background())
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != CodeBusy || !pe.Retryable {
		t.Fatalf("err = %v, want retryable busy", err)
	}
	hog.conn.Close()

	c.Policy = RetryPolicy{MaxAttempts: 5, BaseDelay: 20 * time.Millisecond,
		MaxDelay: 200 * time.Millisecond, Multiplier: 2, Jitter: 0.3}
	if res, err := c.Authenticate(context.Background()); err != nil || !res.Approved {
		t.Fatalf("retry after the slot freed: %+v, %v", res, err)
	}
}

// TestBusyRefusalIsNotADowngrade: a capacity refusal is an ordinary binary
// error frame, sent even to a connection that has said nothing yet — never
// a legacy JSON line or a frame the client fails to decode.  The client
// surfaces it as a retryable busy error, no challenge is burned for the
// refused attempts, and the same client's retry succeeds once the slot
// frees.
func TestBusyRefusalIsNotADowngrade(t *testing.T) {
	addr, srv, chip := startServer(t, 30)
	srv.SetMaxConns(1)
	srv.SetTimeout(2 * time.Second)

	// Occupy the only slot; the challenges frame proves it was admitted.
	hog, _ := rawHello(t, addr)
	issued := srv.ChipStatus("chip-A").Issued

	expectRefusal(t, dialRaw(t, addr), CodeBusy, true)

	c := &V2Client{Addr: addr, ChipID: "chip-A", Device: chip, Cond: silicon.Nominal,
		Timeout: 2 * time.Second, Policy: RetryPolicy{MaxAttempts: 1}}
	defer c.Close()
	_, err := c.Authenticate(context.Background())
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != CodeBusy || !pe.Retryable {
		t.Fatalf("err = %v, want retryable busy", err)
	}
	if got := srv.ChipStatus("chip-A").Issued; got != issued {
		t.Fatalf("busy refusals burned %d challenges", got-issued)
	}
	hog.conn.Close()

	c.Policy = RetryPolicy{MaxAttempts: 5, BaseDelay: 20 * time.Millisecond,
		MaxDelay: 200 * time.Millisecond, Multiplier: 2, Jitter: 0.3}
	res, err := c.Authenticate(context.Background())
	if err != nil || !res.Approved {
		t.Fatalf("post-busy retry: %+v, %v", res, err)
	}
	if got := srv.ChipStatus("chip-A").Issued; got != issued+30 {
		t.Errorf("issued %d after the retry, want %d (one session of 30)", got, issued+30)
	}
}

func TestChallengeBudgetExhaustionIsTerminal(t *testing.T) {
	chip := silicon.NewChip(rng.New(1), silicon.DefaultParams(), 4)
	cfg := core.DefaultEnrollConfig()
	cfg.TrainingSize = 2000
	cfg.ValidationSize = 5000
	enr, err := core.EnrollChip(chip, rng.New(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(60, 3)
	srv.SetChallengeBudget(120) // exactly two sessions' worth
	if err := srv.Register("chip-A", enr.Model); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(srv.Close)
	addr := ln.Addr().String()

	for i := 0; i < 2; i++ {
		if _, err := Authenticate(addr, "chip-A", chip, silicon.Nominal, 5*time.Second); err != nil {
			t.Fatalf("session %d: %v", i+1, err)
		}
	}
	st := srv.ChipStatus("chip-A")
	if st.Issued != 120 || st.Remaining != 0 {
		t.Fatalf("budget accounting off: %+v", st)
	}
	_, err = Authenticate(addr, "chip-A", chip, silicon.Nominal, 5*time.Second)
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != CodeSelectionFailed || pe.Retryable {
		t.Fatalf("err = %v, want terminal selection_failed", err)
	}
}

func TestCloseForceClosesStragglers(t *testing.T) {
	addr, srv, _ := startServer(t, 10)
	srv.SetTimeout(time.Minute) // a straggler could hold a slot for ages
	srv.SetDrainTimeout(200 * time.Millisecond)
	// Reach the handler, then go silent so the session is in flight.
	rawHello(t, addr)
	start := time.Now()
	srv.Close()
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("Close took %v despite 200ms drain deadline", d)
	}
}

// closeInBackground starts srv.Close and returns once Close has begun —
// the listener refuses connections — with a channel closed when it returns.
func closeInBackground(t *testing.T, srv *Server, addr string) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return done
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after Close began")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseDrainsSessionInFlight: a session whose challenges are out when
// Close starts still gets its verdict, a new hello on the same connection
// is refused busy instead, and Close returns once the verdict is out —
// not at the drain deadline.
func TestCloseDrainsSessionInFlight(t *testing.T) {
	addr, srv, chip := startServer(t, 10)
	srv.SetDrainTimeout(time.Minute)
	rc, ch := rawHello(t, addr)
	start := time.Now()
	closed := closeInBackground(t, srv, addr)

	rc.send(&wire.Msg{Type: wire.THello, Stream: 2, ChipID: "chip-A", Batch: 1})
	expectRefusal(t, rc, CodeBusy, true)
	packed := readChallenges(nil, make(challenge.Challenge, ch.Width), chip, silicon.Nominal, ch)
	rc.send(&wire.Msg{Type: wire.TResponses, Stream: ch.Stream, Session: ch.Session,
		Count: ch.Count, Packed: packed})
	if v := rc.expect(wire.TVerdict); !v.Approved {
		t.Fatalf("drained session denied with %d mismatches", v.Mismatches)
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close still waiting after the last verdict")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("Close took %v", d)
	}
	if approved, _ := srv.Stats(); approved != 1 {
		t.Errorf("approved %d sessions, want 1", approved)
	}
}

// TestCloseSkipsIdleConnections: a persistent connection between batches
// has nothing to drain, so it is closed at once and does not hold Close
// for the drain window.
func TestCloseSkipsIdleConnections(t *testing.T) {
	// Each case leaves one persistent connection idle after a finished
	// session: a plain one, and an established key-exchange channel.
	cases := []struct {
		name string
		idle func(t *testing.T, addr string, chip *silicon.Chip) (stillOpen func() bool)
	}{
		{"plain", func(t *testing.T, addr string, chip *silicon.Chip) func() bool {
			rc, ch := rawHello(t, addr)
			packed := readChallenges(nil, make(challenge.Challenge, ch.Width), chip, silicon.Nominal, ch)
			rc.send(&wire.Msg{Type: wire.TResponses, Stream: ch.Stream, Session: ch.Session,
				Count: ch.Count, Packed: packed})
			rc.expect(wire.TVerdict)
			return func() bool { _, err := rc.recv(); return err == nil }
		}},
		{"secure session", func(t *testing.T, addr string, chip *silicon.Chip) func() bool {
			ss, err := keyexClient(addr, chip, silicon.Nominal).Establish(context.Background())
			if err != nil {
				t.Fatalf("Establish: %v", err)
			}
			t.Cleanup(func() { ss.Close() })
			if res, err := ss.Authenticate(); err != nil || !res.Approved {
				t.Fatalf("secure Authenticate = %+v, %v", res, err)
			}
			return func() bool { _, err := ss.Authenticate(); return err == nil }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, srv, chip := startKeyexServer(t, 10, keyex.Config{M: 7, T: 8})
			srv.SetTimeout(time.Minute) // idling must not end the connection by itself
			srv.SetDrainTimeout(time.Minute)
			stillOpen := tc.idle(t, addr, chip)

			start := time.Now()
			srv.Close()
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("Close took %v with only an idle connection open", d)
			}
			if stillOpen() {
				t.Fatal("idle connection still open after Close")
			}
		})
	}
}

func TestClientContextCancellation(t *testing.T) {
	// A listener that accepts and then never answers.
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
	c := &V2Client{
		Addr: ln.Addr().String(), ChipID: "chip-A", Device: chip, Cond: silicon.Nominal,
		Timeout: time.Minute, // cancellation, not the deadline, must end this
		Policy:  RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond},
		Jitter:  rng.New(3),
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = c.Authenticate(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v to take effect", d)
	}
}

// Frame integrity: a single flipped byte must never turn into a wrong
// verdict.  Every frame carries a CRC32, so a tampered verdict fails to
// decode on the device and a tampered hello is refused by the server as a
// retryable bad_message that burns nothing.
func TestFrameIntegrity(t *testing.T) {
	frame := wire.AppendFrame(nil, &wire.Msg{Type: wire.TVerdict, Approved: true, Mismatches: 3})
	var m wire.Msg
	if err := wire.Decode(frame, &m); err != nil || !m.Approved || m.Mismatches != 3 {
		t.Fatalf("untampered verdict: %+v, %v", m, err)
	}
	for i := range frame {
		tampered := append([]byte(nil), frame...)
		tampered[i] ^= 0x04
		if err := wire.Decode(tampered, &m); err == nil {
			t.Fatalf("verdict with byte %d flipped decoded as %+v", i, m)
		}
	}

	addr, srv, _ := startServer(t, 10)
	hello := wire.AppendFrame(nil, &wire.Msg{Type: wire.THello, ChipID: "chip-A", Batch: 1})
	hello[len(hello)-8] ^= 0x04 // inside the chip ID
	rc := dialRaw(t, addr)
	rc.sendBytes(hello)
	expectRefusal(t, rc, CodeBadMessage, true)
	if st := srv.ChipStatus("chip-A"); st.Issued != 0 || st.ConsecutiveDenials != 0 {
		t.Errorf("corrupted hello changed chip state: %+v", st)
	}
}
