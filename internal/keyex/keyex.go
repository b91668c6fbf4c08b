// Package keyex implements a reverse fuzzy-extractor key exchange on top of
// the code-offset construction in internal/ecc, following the observation of
// "Exploiting PUF Models for Error Free Response Generation" (arXiv
// 1701.08241): the server's enrolled model predicts stable-challenge
// responses error-free (the paper's zero-HD criterion), so the server — not
// the resource-constrained device — runs the Generate step and ships helper
// data, while the device only runs the cheap Reproduce step over noisy
// single-shot reads.
//
// The package is transport-agnostic: it owns the transcript hash, the key
// schedule, and the confirmation MACs, while internal/netauth owns framing
// and the handshake state machine.  Key-derivation challenges must burn from
// the registry's never-reuse budget exactly like authentication challenges
// (chosen-challenge attacks, arXiv 2312.01256); that journaling also lives
// with the caller.
package keyex

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"xorpuf/internal/ecc"
)

// CipherChaCha20Poly1305 names the only channel cipher this package
// negotiates.  A peer that offers no cipher still gets key confirmation,
// but its connection stays unencrypted.
const CipherChaCha20Poly1305 = "chacha20poly1305"

// Config selects the BCH code the helper data is built over.
type Config struct {
	// M and T parameterize the BCH(2^M−1, ·, T) code; the handshake reads
	// 2^M−1 stable challenges and tolerates up to T single-shot flips.
	M, T int
}

// DefaultConfig returns the production code: BCH(255, 163, 12).  Stable
// model-selected challenges flip at most a few bits per 255 across the
// paper's V/T envelope, so T = 12 gives a wide reliability margin while the
// 163 message bits keep the extracted key above 128 bits of entropy.
func DefaultConfig() Config { return Config{M: 8, T: 12} }

// Validate checks the code parameters against the BCH bounds, returning the
// typed *ecc.ParamError on violation so wire-supplied configurations are
// rejected before any table construction.
func (c Config) Validate() error { return ecc.CheckParams(c.M, c.T) }

// N returns the code length (challenges per handshake).  Valid only after
// Validate.
func (c Config) N() int { return (1 << uint(c.M)) - 1 }

// maxCachedCodes bounds codeFor's cache: the device takes (M, T) from the
// server's offer, so a peer that offers many codes gets the extra ones built
// per call rather than kept.
const maxCachedCodes = 8

// codes holds one BCH code per Config.  A code is immutable once built, so
// concurrent exchanges share it.
var codes struct {
	mu sync.Mutex
	m  map[Config]*ecc.BCH
}

// codeFor returns the BCH code cfg names, building it on first use.
func codeFor(cfg Config) (*ecc.BCH, error) {
	codes.mu.Lock()
	code := codes.m[cfg]
	codes.mu.Unlock()
	if code != nil {
		return code, nil
	}
	code, err := ecc.NewBCH(cfg.M, cfg.T)
	if err != nil {
		return nil, err
	}
	codes.mu.Lock()
	defer codes.mu.Unlock()
	if codes.m == nil {
		codes.m = make(map[Config]*ecc.BCH)
	}
	if len(codes.m) < maxCachedCodes {
		codes.m[cfg] = code
	}
	return code, nil
}

// Generate is the server-side (reverse) step: bind the model-predicted
// response bits w to a random codeword, returning the session master secret
// and the public helper string.  len(w) must equal the code length.
//
// random supplies the codeword, which IS the session secret: the helper
// data crosses the wire as codeword ⊕ w, so any structure or recoverable
// state in the source hands the key (and the device's predicted responses)
// to a passive eavesdropper.  Production callers must pass
// crypto/rand.Reader; a deterministic rng.Source is acceptable only in
// closed simulations and benchmarks where nothing is exposed.
func Generate(cfg Config, random io.Reader, w []uint8) (master [32]byte, helper []uint8, err error) {
	code, err := codeFor(cfg)
	if err != nil {
		return master, nil, err
	}
	if len(w) != code.N {
		return master, nil, fmt.Errorf("keyex: %d response bits, code needs %d", len(w), code.N)
	}
	return ecc.NewFuzzyExtractor(code).Generate(random, w)
}

// Reproduce is the device-side step: recover the master secret from noisy
// single-shot reads wPrime and the helper data, correcting up to cfg.T
// flips.  Returns ecc.ErrReproduceFailed when the error pattern exceeds the
// code's capability.
func Reproduce(cfg Config, wPrime, helper []uint8) (master [32]byte, corrected int, err error) {
	code, err := codeFor(cfg)
	if err != nil {
		return master, 0, err
	}
	if len(wPrime) != code.N || len(helper) != code.N {
		return master, 0, fmt.Errorf("keyex: %d response / %d helper bits, code needs %d", len(wPrime), len(helper), code.N)
	}
	return ecc.NewFuzzyExtractor(code).Reproduce(wPrime, helper)
}

// Transcript hashes the handshake into the value that binds the key
// schedule and both confirmation MACs to this exact exchange: the
// keyex_init's chip ID and capability bits, and the keyex_offer frame
// exactly as it crossed the wire.  The server hashes the offer bytes it
// writes, the device the bytes it read.  The offer frame carries the
// session id, the BCH (m, t), the cipher, and the packed challenges and
// helper, so tampering with any of them makes the two transcripts diverge.
// The init is hashed as decoded fields, not bytes, because a gateway
// re-encodes it with its own trace context.  The capability bits are bound
// as the server received them and as the device sent them, so an active
// attacker who strips keyex_init capabilities to force a cipherless
// (downgraded) session fails key confirmation.  Every field is
// length-prefixed so no two distinct handshakes collide.
func Transcript(chipID string, caps uint64, offerFrame []byte) [32]byte {
	h := sha256.New()
	var n [8]byte
	put := func(b []byte) {
		binary.BigEndian.PutUint32(n[:4], uint32(len(b)))
		h.Write(n[:4])
		h.Write(b)
	}
	put([]byte("xorpuf-keyex-v2"))
	put([]byte(chipID))
	binary.BigEndian.PutUint64(n[:], caps)
	h.Write(n[:])
	put(offerFrame)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// SessionKeys is the schedule derived from the master secret: a key for the
// confirmation MACs and one channel key per direction.
type SessionKeys struct {
	MAC [32]byte // key-confirmation MAC key
	C2S [32]byte // client-to-server channel key
	S2C [32]byte // server-to-client channel key
}

// DeriveSession expands the master secret into the session key schedule,
// binding every key to the handshake transcript.
func DeriveSession(master, transcript [32]byte) SessionKeys {
	expand := func(label string) [32]byte {
		mac := hmac.New(sha256.New, master[:])
		mac.Write([]byte(label))
		mac.Write(transcript[:])
		var out [32]byte
		mac.Sum(out[:0])
		return out
	}
	return SessionKeys{
		MAC: expand("xorpuf keyex mac"),
		C2S: expand("xorpuf keyex c2s"),
		S2C: expand("xorpuf keyex s2c"),
	}
}

// Handshake roles for ConfirmMAC.
const (
	RoleDevice = "device"
	RoleServer = "server"
)

// ConfirmMAC computes the key-confirmation MAC a peer sends to prove it
// holds the session keys.  Roles are domain-separated so the server's accept
// MAC can never be replayed as a device confirm (and vice versa); the device
// always sends first.
func ConfirmMAC(keys SessionKeys, role string, transcript [32]byte) [32]byte {
	mac := hmac.New(sha256.New, keys.MAC[:])
	mac.Write([]byte("confirm:" + role + ":"))
	mac.Write(transcript[:])
	var out [32]byte
	mac.Sum(out[:0])
	return out
}

// VerifyConfirm checks a received confirmation MAC in constant time.
func VerifyConfirm(keys SessionKeys, role string, transcript [32]byte, got []byte) bool {
	want := ConfirmMAC(keys, role, transcript)
	return hmac.Equal(want[:], got)
}

// Zeroize overwrites a secret in place.  Callers hand off derived keys and
// then clear their own copies; the compiler cannot elide writes through a
// slice that escapes here.
func Zeroize(secret []byte) {
	for i := range secret {
		secret[i] = 0
	}
}
