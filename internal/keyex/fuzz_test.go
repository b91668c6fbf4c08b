package keyex

import (
	"bytes"
	"testing"

	"xorpuf/internal/keyex/aead"
)

// fuzzChannelKeys is a fixed key schedule for the frame-reader fuzzer; the
// decoder's robustness must not depend on the keys.
func fuzzChannelKeys() (SessionKeys, [32]byte) {
	var master, transcript [32]byte
	master[0], transcript[0] = 3, 5
	return DeriveSession(master, transcript), transcript
}

// FuzzSecureFrame drives the encrypted-frame reader with adversarial byte
// streams.  The invariant mirrors the plain transport's: garbage surfaces
// as an error (dropping the session), never as a panic or an allocation
// sized by an unchecked attacker-controlled length prefix.
func FuzzSecureFrame(f *testing.F) {
	keys, transcript := fuzzChannelKeys()

	// Well-formed frames from a live sender, so the decoder sees realistic
	// traffic as well as garbage.
	seed := &bytes.Buffer{}
	sender := NewChannel(duplex{in: &bytes.Buffer{}, out: seed}, keys, transcript, true)
	for _, payload := range [][]byte{
		nil,
		[]byte(`{"type":"hello","chip_id":"chip-0"}`),
		bytes.Repeat([]byte{0xAB}, 100),
	} {
		if err := sender.WriteFrame(payload); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})                   // huge length prefix
	f.Add([]byte{0, 0, 0, 0})                               // below AEAD overhead
	f.Add(append([]byte{0, 0, 0, 16}, make([]byte, 16)...)) // right-sized garbage
	f.Add([]byte{0, 16, 0, 0})                              // 1 MiB prefix, no body
	truncated := append([]byte(nil), seed.Bytes()...)
	f.Add(truncated[:len(truncated)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		ch := NewChannel(duplex{in: bytes.NewBuffer(data), out: &bytes.Buffer{}}, keys, transcript, false)
		for i := 0; i < 8; i++ {
			payload, err := ch.ReadFrame()
			if err != nil {
				return // stream rejected: the session would drop here
			}
			if len(payload)+aead.Overhead > MaxFrame {
				t.Fatalf("accepted %d-byte payload past MaxFrame", len(payload))
			}
		}
	})
}

// FuzzSecureFrameRoundTrip co-fuzzes seal and open: every frame a sender
// writes must come back byte-identical, and any single corrupted byte must
// be rejected.
func FuzzSecureFrameRoundTrip(f *testing.F) {
	f.Add([]byte("payload"), uint16(0))
	f.Add([]byte{}, uint16(3))
	f.Add(bytes.Repeat([]byte{1}, 1000), uint16(500))
	f.Fuzz(func(t *testing.T, payload []byte, corrupt uint16) {
		if len(payload)+aead.Overhead > MaxFrame {
			return
		}
		keys, transcript := fuzzChannelKeys()
		wire := &bytes.Buffer{}
		sender := NewChannel(duplex{in: &bytes.Buffer{}, out: wire}, keys, transcript, true)
		if err := sender.WriteFrame(payload); err != nil {
			t.Fatalf("write: %v", err)
		}
		raw := append([]byte(nil), wire.Bytes()...)

		receiver := NewChannel(duplex{in: bytes.NewBuffer(raw), out: &bytes.Buffer{}}, keys, transcript, false)
		got, err := receiver.ReadFrame()
		if err != nil {
			t.Fatalf("clean read: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("round trip changed the payload")
		}

		// Corrupt one byte past the length prefix: must never be accepted.
		if len(raw) > 4 {
			idx := 4 + int(corrupt)%(len(raw)-4) // idx ≥ 4 keeps the length prefix honest
			raw[idx] ^= 1
			receiver = NewChannel(duplex{in: bytes.NewBuffer(raw), out: &bytes.Buffer{}}, keys, transcript, false)
			if _, err := receiver.ReadFrame(); err == nil {
				t.Fatal("corrupted frame accepted")
			}
		}
	})
}
