package core

import (
	"encoding/json"
	"fmt"

	"xorpuf/internal/challenge"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
)

// Device is the authentication-time view of a chip: only the XOR output is
// observable (the fuses are blown).  *silicon.Chip satisfies it.
type Device interface {
	ReadXOR(c challenge.Challenge, cond silicon.Condition) uint8
}

// SubsetDevice adapts a chip so that only its first N PUFs participate in
// the XOR — used by the width sweeps, which evaluate XOR PUFs of every width
// from one fabricated 10-PUF chip exactly as the paper does.
type SubsetDevice struct {
	Chip *silicon.Chip
	N    int
}

// ReadXOR implements Device.
func (d SubsetDevice) ReadXOR(c challenge.Challenge, cond silicon.Condition) uint8 {
	return d.Chip.ReadXORSubset(d.N, c, cond)
}

// ErrSelectionExhausted is returned when the challenge selector cannot find
// enough predicted-stable challenges within its examination budget.
type ErrSelectionExhausted struct {
	Wanted, Found, Examined int
}

func (e *ErrSelectionExhausted) Error() string {
	return fmt.Sprintf("core: found only %d/%d predicted-stable challenges after examining %d",
		e.Found, e.Wanted, e.Examined)
}

// AuthResult summarizes one authentication attempt.
type AuthResult struct {
	// Approved is true iff every response matched the prediction
	// (the paper's zero-Hamming-distance criterion).
	Approved bool
	// Challenges is the number of CRPs exchanged.
	Challenges int
	// Mismatches counts response bits that disagreed with the server's
	// prediction.
	Mismatches int
	// Examined is the number of random challenges the server drew to find
	// the predicted-stable ones.
	Examined int
}

// Authenticate runs the paper's Fig 7 protocol against a device: select
// `count` predicted-stable challenges through a fresh Selector, obtain
// one-shot XOR responses (a single sample suffices because the selected
// CRPs are 100 % stable), and approve only on a perfect match.
func Authenticate(cm *ChipModel, dev Device, src *rng.Source, count int, cond silicon.Condition) (AuthResult, error) {
	if count <= 0 {
		// Zero challenges would approve any device at zero Hamming distance.
		return AuthResult{}, fmt.Errorf("core: Authenticate count %d, want > 0", count)
	}
	if k := cm.Stages(); k > MaxStages {
		return AuthResult{}, fmt.Errorf("core: Authenticate on %d stages, the selector serves at most %d", k, MaxStages)
	}
	sel := NewSelector(cm, src)
	cs, predicted, err := sel.Next(count, 0)
	if err != nil {
		return AuthResult{Examined: sel.Examined()}, err
	}
	res := AuthResult{Challenges: count, Examined: sel.Examined()}
	for i, c := range cs {
		if dev.ReadXOR(c, cond) != predicted[i] {
			res.Mismatches++
		}
	}
	res.Approved = res.Mismatches == 0
	return res, nil
}

// MarshalJSON/UnmarshalJSON round-trip support lives on the plain struct
// fields; EncodeChipModel/DecodeChipModel provide the server-database
// serialization explicitly.

// EncodeChipModel serializes a chip model for the server database.
func EncodeChipModel(cm *ChipModel) ([]byte, error) {
	return json.Marshal(cm)
}

// DecodeChipModel deserializes a chip model from the server database.
func DecodeChipModel(data []byte) (*ChipModel, error) {
	var cm ChipModel
	if err := json.Unmarshal(data, &cm); err != nil {
		return nil, fmt.Errorf("core: decoding chip model: %w", err)
	}
	if len(cm.PUFs) == 0 {
		return nil, fmt.Errorf("core: decoded chip model has no PUFs")
	}
	stages := cm.PUFs[0].Stages()
	for i, m := range cm.PUFs {
		if m == nil || len(m.Theta) == 0 {
			return nil, fmt.Errorf("core: decoded PUF model %d is empty", i)
		}
		if m.Stages() != stages {
			return nil, fmt.Errorf("core: decoded PUF model %d has %d stages, want %d",
				i, m.Stages(), stages)
		}
	}
	return &cm, nil
}
