package netauth

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"xorpuf/internal/challenge"
	"xorpuf/internal/core"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
	"xorpuf/internal/wire"
)

// startServer enrolls a chip, registers it, and serves on a loopback
// listener; it returns the address, the chip, and a shutdown func.
func startServer(t *testing.T, numChallenges int) (addr string, srv *Server, chip *silicon.Chip) {
	return startServerConfigured(t, numChallenges, nil)
}

// startServerConfigured is startServer with a hook that runs before the
// accept loop starts — required for options like SetTelemetry that the
// session hot path reads without a lock (and therefore must be set
// before Serve).
func startServerConfigured(t *testing.T, numChallenges int, configure func(*Server)) (addr string, srv *Server, chip *silicon.Chip) {
	t.Helper()
	chip = silicon.NewChip(rng.New(1), silicon.DefaultParams(), 4)
	cfg := core.DefaultEnrollConfig()
	cfg.TrainingSize = 2000
	cfg.ValidationSize = 5000
	enr, err := core.EnrollChip(chip, rng.New(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv = NewServer(numChallenges, 3)
	if err := srv.Register("chip-A", enr.Model); err != nil {
		t.Fatal(err)
	}
	if configure != nil {
		configure(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := srv.Serve(ln); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(srv.Close)
	return ln.Addr().String(), srv, chip
}

func TestAuthenticateGenuineOverTCP(t *testing.T) {
	addr, srv, chip := startServer(t, 60)
	res, err := Authenticate(addr, "chip-A", chip, silicon.Nominal, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approved || res.Mismatches != 0 || res.Challenges != 60 {
		t.Errorf("genuine device: %+v", res)
	}
	approved, denied := srv.Stats()
	if approved != 1 || denied != 0 {
		t.Errorf("stats %d/%d, want 1/0", approved, denied)
	}
}

func TestAuthenticateImpostorOverTCP(t *testing.T) {
	addr, srv, _ := startServer(t, 60)
	impostor := silicon.NewChip(rng.New(999), silicon.DefaultParams(), 4)
	res, err := Authenticate(addr, "chip-A", impostor, silicon.Nominal, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Approved {
		t.Error("impostor approved over TCP")
	}
	if res.Mismatches < 10 {
		t.Errorf("impostor only mismatched %d/60", res.Mismatches)
	}
	_, denied := srv.Stats()
	if denied != 1 {
		t.Errorf("denied count %d, want 1", denied)
	}
}

func TestUnknownChipRejected(t *testing.T) {
	addr, _, chip := startServer(t, 10)
	_, err := Authenticate(addr, "no-such-chip", chip, silicon.Nominal, 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "unknown chip") {
		t.Errorf("err = %v, want unknown-chip error", err)
	}
}

// lockedDevice serializes reads of one simulated chip: a silicon.Chip
// draws its read noise from one unsynchronized rng stream.
type lockedDevice struct {
	mu  sync.Mutex
	dev core.Device
}

func (d *lockedDevice) ReadXOR(c challenge.Challenge, cond silicon.Condition) uint8 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dev.ReadXOR(c, cond)
}

func TestConcurrentAuthentications(t *testing.T) {
	addr, srv, silicon0 := startServer(t, 30)
	chip := &lockedDevice{dev: silicon0}
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	results := make([]Result, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Authenticate(addr, "chip-A", chip, silicon.Nominal, 10*time.Second)
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !results[i].Approved {
			t.Errorf("client %d denied: %+v", i, results[i])
		}
	}
	approved, _ := srv.Stats()
	if approved != clients {
		t.Errorf("approved %d, want %d", approved, clients)
	}
}

// rawHello opens one session by hand and returns the connection and the
// server's challenges frame.
func rawHello(t *testing.T, addr string) (*rawConn, *wire.Msg) {
	t.Helper()
	rc := dialRaw(t, addr)
	rc.send(&wire.Msg{Type: wire.THello, Stream: 1, ChipID: "chip-A", Batch: 1})
	return rc, rc.expect(wire.TChallenges)
}

// expectRefusal reads the next frame and asserts it is an error with the
// given code and retryability.
func expectRefusal(t *testing.T, rc *rawConn, code string, retryable bool) *ProtocolError {
	t.Helper()
	_, err := rc.recv()
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want ProtocolError", err)
	}
	if pe.Code != code || pe.Retryable != retryable {
		t.Fatalf("got [%s, retryable=%v] %q, want [%s, retryable=%v]",
			pe.Code, pe.Retryable, pe.Message, code, retryable)
	}
	return pe
}

func TestFreshChallengesPerSession(t *testing.T) {
	addr, _, chip := startServer(t, 20)
	// Capture challenges from two raw sessions and verify disjointness.
	grab := func() map[string]bool {
		rc, ch := rawHello(t, addr)
		out := map[string]bool{}
		bits := wire.UnpackBits(nil, ch.Packed, ch.Width*ch.Count)
		for i := 0; i < ch.Count; i++ {
			out[challenge.Challenge(bits[i*ch.Width:(i+1)*ch.Width]).String()] = true
		}
		// Answer honestly so the server completes cleanly.
		packed := readChallenges(nil, make(challenge.Challenge, ch.Width), chip, silicon.Nominal, ch)
		rc.send(&wire.Msg{Type: wire.TResponses, Stream: ch.Stream, Session: ch.Session,
			Count: ch.Count, Packed: packed})
		rc.expect(wire.TVerdict)
		return out
	}
	a := grab()
	b := grab()
	for c := range a {
		if b[c] {
			t.Fatalf("challenge %s reused across sessions", c)
		}
	}
}

// TestMalformedHello: a hello whose CRC does not match is refused with a
// retryable bad_message before admission, so it burns nothing.
func TestMalformedHello(t *testing.T) {
	addr, srv, _ := startServer(t, 10)
	frame := wire.AppendFrame(nil, &wire.Msg{Type: wire.THello, ChipID: "chip-A", Batch: 1})
	frame[len(frame)-1] ^= 0x01
	rc := dialRaw(t, addr)
	rc.sendBytes(frame)
	expectRefusal(t, rc, CodeBadMessage, true)
	if issued := srv.ChipStatus("chip-A").Issued; issued != 0 {
		t.Errorf("malformed hello burned %d challenges", issued)
	}
}

// TestV1HelloRefusedWithoutBurn: a JSON hello from a retired protocol v1
// device is not a frame.  The server answers a structured, retryable
// bad_message at the first byte and no chip burns a challenge.
func TestV1HelloRefusedWithoutBurn(t *testing.T) {
	addr, srv, _ := startServer(t, 10)
	if err := srv.Register("chip-B", benchChipModel(7, 4, 64)); err != nil {
		t.Fatal(err)
	}
	for _, hello := range []string{
		`{"type":"hello","chip_id":"chip-A"}` + "\n",
		`{"type":"keyex_init","chip_id":"chip-B","caps":["chacha20poly1305"]}` + "\n",
	} {
		rc := dialRaw(t, addr)
		rc.sendBytes([]byte(hello))
		pe := expectRefusal(t, rc, CodeBadMessage, true)
		if !strings.Contains(pe.Message, "bad frame") {
			t.Errorf("refusal %q does not name the bad frame", pe.Message)
		}
	}
	for _, id := range []string{"chip-A", "chip-B"} {
		if st := srv.ChipStatus(id); st.Issued != 0 || st.ConsecutiveDenials != 0 {
			t.Errorf("%s after v1 hellos: %+v, want nothing burned or counted", id, st)
		}
	}
}

func TestSessionMismatchRejected(t *testing.T) {
	addr, _, _ := startServer(t, 5)
	rc, ch := rawHello(t, addr)
	rc.send(&wire.Msg{Type: wire.TResponses, Stream: ch.Stream,
		Session: []byte("forged!!"), Count: ch.Count, Packed: make([]byte, wire.PackedLen(ch.Count))})
	if pe := expectRefusal(t, rc, CodeBadMessage, true); !strings.Contains(pe.Message, "session mismatch") {
		t.Errorf("refusal %q, want session mismatch", pe.Message)
	}
}

func TestWrongResponseCountRejected(t *testing.T) {
	addr, _, _ := startServer(t, 5)
	rc, ch := rawHello(t, addr)
	rc.send(&wire.Msg{Type: wire.TResponses, Stream: ch.Stream,
		Session: ch.Session, Count: 1, Packed: []byte{0}})
	if pe := expectRefusal(t, rc, CodeBadMessage, true); !strings.Contains(pe.Message, "expected") {
		t.Errorf("refusal %q, want response-count error", pe.Message)
	}
}

func TestRegisterValidation(t *testing.T) {
	srv := NewServer(10, 1)
	if err := srv.Register("", &core.ChipModel{}); err == nil {
		t.Error("empty chip ID should fail")
	}
	if err := srv.Register("x", nil); err == nil {
		t.Error("nil model should fail")
	}
	model := &core.ChipModel{PUFs: []*core.PUFModel{{Theta: make([]float64, 33), Thr0: 0.3, Thr1: 0.7}}, Beta0: 1, Beta1: 1}
	if err := srv.Register("x", model); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("x", model); err == nil {
		t.Error("duplicate registration should fail")
	}
}

func TestAuthenticateAtCorner(t *testing.T) {
	// Enroll with V/T hardening; the device authenticates from a harsh
	// corner over the network.
	chip := silicon.NewChip(rng.New(10), silicon.DefaultParams(), 4)
	cfg := core.DefaultEnrollConfig()
	cfg.TrainingSize = 2000
	cfg.ValidationSize = 6000
	cfg.Conditions = silicon.Corners()
	enr, err := core.EnrollChip(chip, rng.New(11), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(50, 12)
	if err := srv.Register("edge-device", enr.Model); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()
	res, err := Authenticate(ln.Addr().String(), "edge-device", chip,
		silicon.Condition{VDD: 0.8, TempC: 60}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approved {
		t.Errorf("V/T-hardened device denied at 0.8V/60°C: %+v", res)
	}
}
