// Package keygen derives device-unique cryptographic keys from XOR arbiter
// PUF responses — the second canonical PUF application next to
// authentication, and the one where the paper's stable-challenge selection
// pays off most directly: responses that never flip need little or no error
// correction, so the key rate rises and the helper-data leakage falls.
//
// Enrollment (fuses intact): pick N challenges (either at random or via the
// model-based selector), read the XOR responses, and bind them to a random
// BCH codeword with the code-offset fuzzy extractor.  The challenge list,
// helper string, and key-check commitment are public; the key itself is
// returned exactly once and never stored in the enrollment record.
//
// Reproduction (in the field, any V/T corner): re-read the same challenges
// with single-shot XOR evaluations, run the fuzzy extractor's Reproduce, and
// verify the result against the enrollment's key-check commitment — a
// bounded-distance BCH decode can miscorrect silently past its budget, and
// the commitment turns that into a hard ErrKeyMismatch instead of a wrong
// key reaching the caller.
package keygen

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"xorpuf/internal/challenge"
	"xorpuf/internal/core"
	"xorpuf/internal/ecc"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
)

// Enrollment is the public data needed to reproduce a key.  It deliberately
// does not hold the key: Enroll returns the key once, callers hand it off
// (or wrap it into a session) and then ZeroizeKey their copy.
type Enrollment struct {
	Challenges []challenge.Challenge
	Helper     []uint8
	// KeyCheck commits to the derived key (a domain-separated hash) so
	// reproduction fails closed when the decoder silently miscorrects.  It
	// is one-way: publishing it reveals nothing usable about the key.
	KeyCheck [32]byte
}

// Config selects the code strength and challenge policy.
type Config struct {
	// M and T parameterize the BCH(2^M−1, ·, T) code.
	M, T int
	// Selector, when non-nil, supplies model-selected stable challenges;
	// when nil, challenges are drawn uniformly (the baseline).
	Selector *core.Selector
}

// Validate checks M and T against the BCH code bounds, returning the typed
// *ecc.ParamError on violation — operator- or wire-supplied configurations
// fail here with structure instead of deep inside code construction.
func (c Config) Validate() error { return ecc.CheckParams(c.M, c.T) }

// keyCheck commits to a derived key.
func keyCheck(key [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("xorpuf keygen check"))
	h.Write(key[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// ZeroizeKey clears a key in place after handoff.
func ZeroizeKey(key *[32]byte) {
	for i := range key {
		key[i] = 0
	}
}

// Enroll reads the chip and produces an enrollment plus the derived key.
// The key is returned exactly once and is absent from the Enrollment; src
// drives challenge generation (when no selector is given) and the codeword
// choice.
func Enroll(dev core.Device, stages int, src *rng.Source, cond silicon.Condition, cfg Config) (*Enrollment, [32]byte, error) {
	var key [32]byte
	if err := cfg.Validate(); err != nil {
		return nil, key, err
	}
	code, err := ecc.NewBCH(cfg.M, cfg.T)
	if err != nil {
		return nil, key, err
	}
	fe := ecc.NewFuzzyExtractor(code)
	var cs []challenge.Challenge
	if cfg.Selector != nil {
		words, _, err := cfg.Selector.Next(code.N, 0)
		if err != nil {
			return nil, key, fmt.Errorf("keygen: selecting challenges: %w", err)
		}
		cs = make([]challenge.Challenge, len(words))
		for i, w := range words {
			cs[i] = challenge.FromWord(w, cfg.Selector.Stages())
		}
	} else {
		cs = challenge.RandomBatch(src.Split("challenges"), code.N, stages)
	}
	w := make([]uint8, code.N)
	for i, c := range cs {
		w[i] = dev.ReadXOR(c, cond)
	}
	key, helper, err := fe.Generate(src.Split("codeword"), w)
	if err != nil {
		return nil, key, err
	}
	return &Enrollment{Challenges: cs, Helper: helper, KeyCheck: keyCheck(key)}, key, nil
}

// ErrKeyMismatch is returned when the reproduced key fails the enrollment's
// key-check commitment — the decoder converged, but on the wrong codeword.
var ErrKeyMismatch = errors.New("keygen: reproduced key failed the enrollment key check")

// Reproduce re-derives the key on the device and verifies it against the
// enrollment commitment.  It returns the key and the number of response
// bits the code had to correct.
func Reproduce(dev core.Device, enr *Enrollment, cond silicon.Condition, cfg Config) ([32]byte, int, error) {
	if err := cfg.Validate(); err != nil {
		return [32]byte{}, 0, err
	}
	code, err := ecc.NewBCH(cfg.M, cfg.T)
	if err != nil {
		return [32]byte{}, 0, err
	}
	if len(enr.Challenges) != code.N || len(enr.Helper) != code.N {
		return [32]byte{}, 0, fmt.Errorf("keygen: enrollment sized for a different code")
	}
	fe := ecc.NewFuzzyExtractor(code)
	w := make([]uint8, code.N)
	for i, c := range enr.Challenges {
		w[i] = dev.ReadXOR(c, cond)
	}
	key, fixed, err := fe.Reproduce(w, enr.Helper)
	if err != nil {
		return [32]byte{}, fixed, err
	}
	if keyCheck(key) != enr.KeyCheck {
		ZeroizeKey(&key)
		return [32]byte{}, fixed, ErrKeyMismatch
	}
	return key, fixed, nil
}
