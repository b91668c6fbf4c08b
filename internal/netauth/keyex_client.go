// Device side of the reverse fuzzy-extractor key exchange.  The device's
// share of the work is deliberately tiny: one XOR readout per challenge and
// a bounded-distance BCH decode — no code generation, no randomness, which
// is exactly why the reverse construction suits a constrained PUF token.
package netauth

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"time"

	"xorpuf/internal/challenge"
	"xorpuf/internal/core"
	"xorpuf/internal/keyex"
	"xorpuf/internal/silicon"
	"xorpuf/internal/wire"
)

// KeyexResult describes an established key-exchange session.
type KeyexResult struct {
	// Session is the server-assigned session identifier.
	Session string
	// Challenges is how many key-derivation challenges were burned.
	Challenges int
	// Corrected is how many bit errors the code-offset extractor fixed in
	// the device's noisy reading — a live reliability measurement.
	Corrected int
	// Cipher is the negotiated channel cipher.
	Cipher string
}

// SecureSession is an established, mutually key-confirmed session with an
// AEAD-encrypted channel over the same connection; Authenticate and
// SendPayload run their frames inside it.  Not safe for concurrent use.
// Close it when done.
type SecureSession struct {
	Result KeyexResult

	chipID  string
	dev     core.Device
	cond    silicon.Condition
	timeout time.Duration
	session []byte

	conn net.Conn
	ch   *keyex.Channel
	rd   *wire.Reader // frames decrypted from ch
	wb   []byte
	stop func() bool // cancels the context watchdog on the conn
}

// Establish dials a dedicated connection and runs the key exchange: it
// requests helper data, reads the chip once per challenge, reproduces the
// session key with the code-offset extractor, and exchanges
// key-confirmation MACs (device first).  On success the returned session
// holds the encrypted channel.
//
// Unlike AuthenticateBatch there is no retry loop: every handshake burns
// fresh challenges, so retrying is an explicit caller decision.
func (c *V2Client) Establish(ctx context.Context) (*SecureSession, error) {
	c.init()
	if c.Device == nil {
		return nil, errors.New("netauth: client has no device")
	}
	if err := c.Cond.Validate(); err != nil {
		return nil, fmt.Errorf("netauth: operating condition: %w", err)
	}
	dialCtx, cancel := context.WithTimeout(ctx, c.Timeout)
	defer cancel()
	conn, err := c.DialContext(dialCtx, "tcp", c.Addr)
	if err != nil {
		return nil, err
	}
	// Cancellation must interrupt blocked handshake I/O, not just the gaps
	// between messages: closing the connection fails the pending op.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	ss, err := c.establish(conn)
	if err != nil {
		stop()
		conn.Close()
		return nil, ctxErr(ctx, err)
	}
	ss.stop = stop
	return ss, nil
}

// establish runs the handshake frames on an open connection.  The
// handshake is three frames; ReadRawFrame's fresh buffers keep the code
// simple — key-exchange throughput is bounded by BCH math, not allocs.
func (c *V2Client) establish(conn net.Conn) (*SecureSession, error) {
	br := bufio.NewReader(conn)
	send := func(m *wire.Msg) error {
		_ = conn.SetWriteDeadline(time.Now().Add(c.Timeout))
		_, err := conn.Write(wire.AppendFrame(nil, m))
		return err
	}
	const caps = wire.CapChaCha20Poly1305
	if err := send(&wire.Msg{Type: wire.TKeyexInit, ChipID: c.ChipID,
		Caps: caps, Trace: c.Trace}); err != nil {
		return nil, err
	}
	var offer wire.Msg
	offerFrame, err := c.readHandshake(conn, br, &offer, wire.TKeyexOffer)
	if err != nil {
		return nil, err
	}
	// Downgrade check: we offered exactly ChaCha20-Poly1305, so the server
	// must pick it.  Accepting anything else — in particular CipherNone
	// (confirm-only, no encrypted channel) — would let an active attacker
	// who tampers with the negotiation silently strip the session's
	// encryption.  The capability bits are also bound into the transcript
	// below, so even a tampered keyex_init that survives this check fails
	// key confirmation.
	if offer.Cipher != wire.CipherChaCha20 {
		return nil, fmt.Errorf("netauth: server chose cipher %d, which this client did not offer", offer.Cipher)
	}
	cfg := keyex.Config{M: offer.M, T: offer.T}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("netauth: server offered bad code parameters: %w", err)
	}
	n := cfg.N()
	if offer.Count != n || offer.Width <= 0 {
		return nil, fmt.Errorf("netauth: offer carries %d challenges of width %d, code needs %d",
			offer.Count, offer.Width, n)
	}
	sessRaw := append([]byte(nil), offer.Session...)
	session := hex.EncodeToString(sessRaw)

	// One single-shot XOR readout per challenge — the protocol's designed
	// device workload, read through the same word path as authentication.
	packed := readChallenges(nil, make(challenge.Challenge, offer.Width), c.Device, c.Cond, &offer)
	w := wire.UnpackBits(nil, packed, n)
	master, corrected, err := keyex.Reproduce(cfg, w, wire.UnpackBits(nil, offer.Helper, n))
	if err != nil {
		return nil, fmt.Errorf("netauth: key reproduction failed: %w", err)
	}

	// Bind the key schedule to the exact offer frame we answered.  A
	// tampered offer (different challenges, helper, or cipher) yields a
	// different transcript, so the server's confirm MAC will not verify.
	transcript := keyex.Transcript(c.ChipID, caps, offerFrame)
	keys := keyex.DeriveSession(master, transcript)
	keyex.Zeroize(master[:])

	devMAC := keyex.ConfirmMAC(keys, keyex.RoleDevice, transcript)
	if err := send(&wire.Msg{Type: wire.TKeyexConfirm, Session: sessRaw, MAC: devMAC[:]}); err != nil {
		return nil, err
	}
	var accept wire.Msg
	if _, err := c.readHandshake(conn, br, &accept, wire.TKeyexAccept); err != nil {
		return nil, err // includes the structured key_mismatch denial
	}
	if !keyex.VerifyConfirm(keys, keyex.RoleServer, transcript, accept.MAC) {
		return nil, errors.New("netauth: server failed key confirmation")
	}

	ch := keyex.NewChannel(readWriter{br, conn}, keys, transcript, true)
	return &SecureSession{
		Result: KeyexResult{
			Session:    session,
			Challenges: n,
			Corrected:  corrected,
			Cipher:     keyex.CipherChaCha20Poly1305,
		},
		chipID:  c.ChipID,
		dev:     c.Device,
		cond:    c.Cond,
		timeout: c.Timeout,
		session: sessRaw,
		conn:    conn,
		ch:      ch,
		rd:      wire.NewReader(bufio.NewReader(&channelStream{ch: ch})),
	}, nil
}

// readHandshake reads one handshake frame into m and returns its raw
// bytes, surfacing server refusals as structured ProtocolErrors.
func (c *V2Client) readHandshake(conn net.Conn, br *bufio.Reader, m *wire.Msg, want byte) ([]byte, error) {
	_ = conn.SetReadDeadline(time.Now().Add(c.Timeout))
	raw, err := wire.ReadRawFrame(br)
	if err != nil {
		return nil, err
	}
	if err := wire.Decode(raw, m); err != nil {
		return nil, err
	}
	if m.Type == wire.TError {
		return nil, protocolError(m)
	}
	if m.Type != want {
		return nil, fmt.Errorf("netauth: unexpected frame type 0x%02x, want 0x%02x", m.Type, want)
	}
	return raw, nil
}

// Authenticate runs one full authentication exchange inside the encrypted
// channel — the same challenge/response/verdict frames, now opaque to a
// network observer.
func (s *SecureSession) Authenticate() (Result, error) {
	if err := s.write(&wire.Msg{Type: wire.THello, ChipID: s.chipID, Batch: 1}); err != nil {
		return Result{}, err
	}
	var m wire.Msg
	if err := s.read(&m, wire.TChallenges); err != nil {
		return Result{}, err
	}
	challenges := m.Count
	packed := readChallenges(nil, make(challenge.Challenge, m.Width), s.dev, s.cond, &m)
	if err := s.write(&wire.Msg{Type: wire.TResponses, Stream: m.Stream,
		Session: m.Session, Count: m.Count, Packed: packed}); err != nil {
		return Result{}, err
	}
	if err := s.read(&m, wire.TVerdict); err != nil {
		return Result{}, err
	}
	return Result{
		Approved:   m.Approved,
		Mismatches: m.Mismatches,
		Challenges: challenges,
		Attempts:   1,
	}, nil
}

// SendPayload ships application data over the encrypted channel and
// verifies the server's acknowledged digest end to end.
func (s *SecureSession) SendPayload(data []byte) error {
	sum := sha256.Sum256(data)
	if err := s.write(&wire.Msg{Type: wire.TPayload, Session: s.session,
		Digest: sum[:], Data: data}); err != nil {
		return err
	}
	var m wire.Msg
	if err := s.read(&m, wire.TPayloadAck); err != nil {
		return err
	}
	if !bytes.Equal(m.Digest, sum[:]) {
		return fmt.Errorf("netauth: server acknowledged digest %x, want %x", m.Digest, sum)
	}
	return nil
}

// Close says bye (best effort), tears down the channel, and closes the
// connection.  Safe to call more than once.
func (s *SecureSession) Close() error {
	if !s.ch.Broken() {
		if err := s.write(&wire.Msg{Type: wire.TBye}); err == nil {
			var m wire.Msg
			_ = s.read(&m, wire.TBye)
		}
	}
	s.ch.Close()
	if s.stop != nil {
		s.stop()
	}
	if s.rd != nil {
		s.rd.Release()
		s.rd = nil
	}
	return s.conn.Close()
}

// write seals one frame into the channel.
func (s *SecureSession) write(m *wire.Msg) error {
	s.wb = wire.AppendFrame(s.wb[:0], m)
	_ = s.conn.SetWriteDeadline(time.Now().Add(s.timeout))
	return s.ch.WriteFrame(s.wb)
}

// read receives one frame of type want from the channel into m; a server
// error frame comes back as a *ProtocolError.
func (s *SecureSession) read(m *wire.Msg, want byte) error {
	if s.rd == nil {
		return errors.New("netauth: secure session is closed")
	}
	_ = s.conn.SetReadDeadline(time.Now().Add(s.timeout))
	if _, err := s.rd.Next(m); err != nil {
		return err
	}
	if m.Type == wire.TError {
		return protocolError(m)
	}
	if m.Type != want {
		return fmt.Errorf("netauth: unexpected frame type 0x%02x, want 0x%02x", m.Type, want)
	}
	return nil
}
