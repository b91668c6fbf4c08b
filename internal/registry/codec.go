// Binary serialization of registry state: compact little-endian records
// behind a 4-byte magic.  The unit of serialization is one enrolled chip:
// its core.ChipModel (per-member θ vectors, raw thresholds, chip-wide β
// pair), its core.SelectorState (budget plus the used-challenge words that
// carry the never-reuse guarantee), and its abuse-control state (denial
// streak, lockout flag).
//
// A 6-XOR 32-stage model costs 6×(33+2)×8 + 2×8 + 4 ≈ 1.7 KiB — the paper's
// §1 storage argument in code: delay parameters, not CRP tables.
package registry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"xorpuf/internal/core"
	"xorpuf/internal/health"
)

// ErrCorrupt is returned when decoding bytes that are not a well-formed
// registry record.
var ErrCorrupt = errors.New("registry: corrupt record")

// Decode-side sanity bounds: a corrupted length field must not trigger an
// absurd allocation.
// maxStages is the widest challenge core.Selector serves.
const (
	maxIDLen     = 1 << 10
	maxWidth     = 1 << 8
	maxStages    = core.MaxStages
	maxUsedWords = 1 << 28
)

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendString(b []byte, s string) []byte {
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

// appendModel encodes a chip model: width, stages, β pair, then per member
// PUF the raw thresholds and θ vector (stages+1 coefficients).
func appendModel(b []byte, m *core.ChipModel) []byte {
	b = appendU16(b, uint16(m.Width()))
	b = appendU16(b, uint16(m.Stages()))
	b = appendF64(b, m.Beta0)
	b = appendF64(b, m.Beta1)
	for _, p := range m.PUFs {
		b = appendF64(b, p.Thr0)
		b = appendF64(b, p.Thr1)
		for _, th := range p.Theta {
			b = appendF64(b, th)
		}
	}
	return b
}

// appendSelectorState encodes budget plus the sorted used-challenge words.
func appendSelectorState(b []byte, st core.SelectorState) []byte {
	b = appendU32(b, uint32(st.Budget))
	b = appendU32(b, uint32(len(st.Used)))
	for _, w := range st.Used {
		b = appendU64(b, w)
	}
	return b
}

// appendTrackerState encodes one chip's drift-detector state.
func appendTrackerState(b []byte, st health.TrackerState) []byte {
	b = append(b, byte(st.State))
	b = appendF64(b, st.FailEWMA)
	b = appendF64(b, st.CUSUM)
	b = appendU64(b, st.Sessions)
	b = appendU64(b, st.Failures)
	return b
}

// reader is a little-endian cursor with sticky error state, so decode paths
// read straight through and check err once.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.fail("truncated: want %d bytes, have %d", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) f64() float64 {
	v := math.Float64frombits(r.u64())
	if r.err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		r.fail("non-finite float")
	}
	return v
}

func (r *reader) str() string {
	n := int(r.u16())
	if r.err == nil && n > maxIDLen {
		r.fail("string length %d exceeds cap", n)
	}
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// readModel decodes and validates one chip model.
func (r *reader) readModel() *core.ChipModel {
	width := int(r.u16())
	stages := int(r.u16())
	if r.err != nil {
		return nil
	}
	if width < 1 || width > maxWidth || stages < 1 || stages > maxStages {
		r.fail("implausible model geometry %d×%d", width, stages)
		return nil
	}
	// The remaining payload must hold β pair + per-PUF thresholds and θ;
	// checking up front keeps a corrupt geometry from allocating megabytes
	// just to fail on truncation.
	if need := 16 + width*(2+stages+1)*8; need > len(r.b) {
		r.fail("model geometry %d×%d needs %d bytes, have %d", width, stages, need, len(r.b))
		return nil
	}
	m := &core.ChipModel{PUFs: make([]*core.PUFModel, width)}
	m.Beta0 = r.f64()
	m.Beta1 = r.f64()
	for i := range m.PUFs {
		p := &core.PUFModel{Theta: make([]float64, stages+1)}
		p.Thr0 = r.f64()
		p.Thr1 = r.f64()
		for j := range p.Theta {
			p.Theta[j] = r.f64()
		}
		m.PUFs[i] = p
	}
	if r.err != nil {
		return nil
	}
	return m
}

// readTrackerState decodes one chip's drift-detector state.
func (r *reader) readTrackerState() health.TrackerState {
	s := health.State(r.u8())
	if r.err == nil && !s.Valid() {
		r.fail("invalid health state %d", s)
	}
	return health.TrackerState{
		State:    s,
		FailEWMA: r.f64(),
		CUSUM:    r.f64(),
		Sessions: r.u64(),
		Failures: r.u64(),
	}
}

// readSelectorState decodes one selector state.
func (r *reader) readSelectorState() core.SelectorState {
	budget := int(r.u32())
	count := int(r.u32())
	if r.err == nil && count > maxUsedWords {
		r.fail("implausible used-word count %d", count)
	}
	// Same defensive posture as readModel: the words must actually be in
	// the payload before a count-sized slice is allocated.
	if r.err == nil && count*8 > len(r.b) {
		r.fail("used-word count %d needs %d bytes, have %d", count, count*8, len(r.b))
	}
	if r.err != nil {
		return core.SelectorState{}
	}
	st := core.SelectorState{Budget: budget, Used: make([]uint64, count)}
	for i := range st.Used {
		st.Used[i] = r.u64()
	}
	return st
}
