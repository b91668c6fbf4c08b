// Server side of the reverse fuzzy-extractor key exchange (keyex package
// overview has the protocol rationale).  The asymmetry is the point: the
// server, which holds the enrolled model, runs the expensive BCH encode
// over its error-free predicted responses; the device only has to read the
// chip once per challenge and run the cheap code-offset Reproduce.
//
// Wire flow, as the first frames of a connection:
//
//	device → server   keyex_init     chip ID, capability bits
//	server → device   keyex_offer    session id, BCH (m, t), cipher,
//	                                 packed challenge bits, packed helper bits
//	device → server   keyex_confirm  session id, device confirmation MAC
//	server → device   keyex_accept   session id, server confirmation MAC
//
// after which, if a cipher was negotiated, both sides switch the same
// connection to length-prefixed AEAD boxes (keyex.Channel) and run the
// ordinary frame event loop inside them: a hello runs a full
// authentication exchange, payload/payload_ack move integrity-checked
// application data, bye ends the session cleanly.
//
// The transcript (keyex.Transcript) hashes the keyex_offer frame exactly
// as the server writes it and the device reads it, plus the keyex_init's
// chip ID and capability bits.  A gateway relays the offer verbatim but
// re-encodes the init with its own trace context, so the init is bound by
// its decoded fields, not its bytes.
//
// Security posture mirrors authentication exactly where it matters:
//
//   - Key-derivation challenges are burned (journaled recKeyIssued through
//     the same quorum-gated WAL path as auth issuance) BEFORE the helper
//     data leaves the server, so no challenge is ever reused even across a
//     crash mid-handshake — helper data is exactly the kind of output a
//     chosen-challenge modeling attack would love to replay.
//   - The device confirms FIRST.  A peer that cannot reproduce the key —
//     a modeling adversary holding a stolen chip ID, or silicon far out of
//     its error envelope — gets a terminal key_mismatch denial that counts
//     toward lockout, and never sees a server MAC to verify guesses against.
//   - The server never reveals the predicted responses; only challenges and
//     helper data cross the wire, which is the reverse fuzzy extractor's
//     designed leakage.
package netauth

import (
	"bufio"
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"io"
	"time"

	"xorpuf/internal/keyex"
	"xorpuf/internal/telemetry/dtrace"
	"xorpuf/internal/wire"
)

// SetKeyExchange enables the reverse fuzzy-extractor key exchange with the
// given code parameters.  Call before Serve.  The configuration is
// validated eagerly — a bad BCH geometry should fail server startup, not
// every handshake.
func (s *Server) SetKeyExchange(cfg keyex.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keyexCfg = cfg
	s.keyexOn = true
	return nil
}

// keyexSession serves one key exchange opened by init, the connection's
// first frame.  Its session record is a "netauth.keyex" span; key
// derivation runs under a "keyex.derive" child whose context carries into
// the quorum-gated IssueKey journaling.  A peer that vanishes mid-exchange
// leaves the record refused:bad_message, like an abandoned stream.
func (s *Server) keyexSession(l *link, init *wire.Msg) {
	tc, _ := dtrace.ParseContext(init.Trace)
	rec := s.startSession(tc, "netauth.keyex", init.ChipID, time.Now())
	status, burned := "refused:"+CodeBadMessage, 0
	defer func() { s.endSession(&rec, init.ChipID, burned, status) }()
	fail := func(code string, retryable bool, format string, args ...interface{}) {
		status = "refused:" + code
		l.fail(init.Stream, code, retryable, format, args...)
	}

	// Admission runs first: a locked-out or quarantined chip gets no helper
	// data either.
	entry, ref := s.admitChip(init.ChipID)
	if ref != nil {
		status = "refused:" + ref.code
		l.refuse(init.Stream, ref)
		return
	}
	if !l.acquire(1) {
		fail(CodeBusy, true, "server shutting down")
		return
	}
	// The exchange is one unit of in-flight work until its verdict is
	// out; an established channel then counts only its own open streams,
	// so an idle one is closed at once by Close like any idle connection.
	held := int32(1)
	defer func() { l.inflight.Add(-held) }()
	s.mu.Lock()
	enabled := s.keyexOn
	cfg := s.keyexCfg
	lockoutK := s.lockoutK
	s.mu.Unlock()
	if !enabled {
		fail(CodeKeyexUnavailable, false, "key exchange is not enabled on this server")
		return
	}
	var sessRaw [wire.SessionLen]byte
	randomSessionIDs(sessRaw[:])
	session := hex.EncodeToString(sessRaw[:])
	s.tel.keyexStart()
	rec.SetAttr("session", session)

	// Cipher negotiation: one suite today.  A client that offers nothing we
	// speak still gets key confirmation (mutual proof of key possession)
	// but no channel upgrade.
	cipher := byte(wire.CipherNone)
	if init.Caps&wire.CapChaCha20Poly1305 != 0 {
		cipher = wire.CipherChaCha20
	}

	// Burn fresh challenges for key derivation.  IssueKey journals them
	// before they are released, so the never-reuse guarantee covers
	// abandoned handshakes and crashes too.
	deriveStart := time.Now()
	deriveSpan := s.spans.StartSpanAt(rec.Context(), "keyex.derive", deriveStart)
	words, predicted, err := entry.IssueKeyCtx(dtrace.Inject(context.Background(), deriveSpan.Context()), cfg.N(), 0)
	s.tel.observeSelect(deriveStart)
	rec.SetAttr("select_us", usAttr(time.Since(deriveStart)))
	if err != nil {
		code, retryable := issueRefusal(err)
		deriveSpan.SetStatus("error:" + code)
		deriveSpan.End()
		fail(code, retryable, "challenge selection failed: %v", err)
		return
	}
	burned = len(words)

	// Reverse fuzzy extractor: the enrolled model's predictions are the
	// error-free enrollment reading, so Generate runs server-side and the
	// device only ever runs Reproduce.  The codeword is the session secret
	// and helper = codeword ⊕ predicted crosses the wire, so it must come
	// from the kernel CSPRNG — never from the deterministic selection PRNG,
	// whose state any emitted output would reveal.
	master, helper, err := keyex.Generate(cfg, crand.Reader, predicted)
	if err != nil {
		deriveSpan.SetStatus("error:" + CodeSelectionFailed)
		deriveSpan.End()
		fail(CodeSelectionFailed, false, "helper data generation failed: %v", err)
		return
	}
	// The transcript hashes the offer frame as queued, so it binds exactly
	// the bytes that go out on the flush below.
	width := entry.Model().Stages()
	before := len(*l.wb)
	l.queue(&wire.Msg{
		Type: wire.TKeyexOffer, Stream: init.Stream, Session: sessRaw[:],
		M: cfg.M, T: cfg.T, Cipher: cipher,
		Width: width, Count: len(words),
		Packed: packWords(nil, words, width),
		Helper: wire.PackBits(nil, helper),
	})
	transcript := keyex.Transcript(init.ChipID, init.Caps, (*l.wb)[before:])
	keys := keyex.DeriveSession(master, transcript)
	keyex.Zeroize(master[:])
	s.tel.observeKeyDerive(deriveStart)
	deriveSpan.SetStatus("ok")
	deriveSpan.End()

	rttStart := time.Now()
	if err := l.flush(); err != nil {
		return
	}
	var m wire.Msg
	err = l.next(&m)
	s.tel.observeRTT(rttStart)
	rec.SetAttr("device_rtt_us", usAttr(time.Since(rttStart)))
	if err != nil || m.Type != wire.TKeyexConfirm {
		fail(CodeBadMessage, true, "bad keyex_confirm")
		return
	}
	if !bytes.Equal(m.Session, sessRaw[:]) {
		fail(CodeBadMessage, true, "session mismatch")
		return
	}
	if !keyex.VerifyConfirm(keys, keyex.RoleDevice, transcript, m.MAC) {
		// Failed key confirmation is treated like a denied authentication:
		// it counts toward lockout and the denial is terminal.  The server
		// MAC is never sent, so the peer learns nothing to verify key
		// guesses against offline.
		if nowLocked := entry.Verdict(false, lockoutK); nowLocked {
			s.tel.lockout()
		}
		s.tel.keyexReject()
		fail(CodeKeyMismatch, false, "key confirmation failed")
		status = "denied"
		return
	}
	entry.Verdict(true, lockoutK)
	srvMAC := keyex.ConfirmMAC(keys, keyex.RoleServer, transcript)
	if err := l.write(&wire.Msg{
		Type: wire.TKeyexAccept, Stream: init.Stream, Session: sessRaw[:], MAC: srvMAC[:],
	}); err != nil {
		return
	}
	s.tel.keyexEstablishedOK()
	status = "ok"
	l.inflight.Add(-held)
	held = 0

	if cipher == wire.CipherNone {
		return // confirm-only exchange: mutual proof, no channel
	}
	ch := keyex.NewChannel(readWriter{l.br, l.conn}, keys, transcript, false)
	defer ch.Close()
	sealed := &channelStream{ch: ch}
	inner := s.newLink(l.conn, bufio.NewReader(sealed), sealed, s.tel.secureFrame)
	inner.inflight = l.inflight
	defer inner.release()
	s.serveFrames(inner, init.ChipID, rec.Context())
}

// readWriter stitches the handshake's buffered reader to the raw
// connection, so bytes a pipelining peer sent ahead of the channel upgrade
// are not stranded in the bufio buffer when keyex.Channel takes over the
// socket.
type readWriter struct {
	io.Reader
	io.Writer
}

// channelStream turns an AEAD channel into a byte stream, so frames flow
// through it exactly as over a plain connection: reads drain decrypted
// boxes in order, and each write — one flush of queued frames — is sealed
// as one box.
type channelStream struct {
	ch  *keyex.Channel
	buf []byte
}

func (c *channelStream) Read(p []byte) (int, error) {
	for len(c.buf) == 0 {
		b, err := c.ch.ReadFrame()
		if err != nil {
			return 0, err
		}
		c.buf = b
	}
	n := copy(p, c.buf)
	c.buf = c.buf[n:]
	return n, nil
}

func (c *channelStream) Write(p []byte) (int, error) {
	if err := c.ch.WriteFrame(p); err != nil {
		return 0, err
	}
	return len(p), nil
}
