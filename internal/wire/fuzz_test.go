package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzV2Frame feeds arbitrary bytes to the frame decoder. The decoder
// must never panic, and any frame it accepts must survive a semantic
// round-trip: re-encoding the decoded Msg and decoding again yields the
// same fields. (Byte-identical re-encoding is not required — overlong
// varints decode but re-encode canonically.) The opaque link reader sees
// the same bytes: it must never panic either, and every frame Decode
// accepts is a link frame of the same type — one framing, whatever the
// payload means.
func FuzzV2Frame(f *testing.F) {
	for _, m := range fuzzSeeds() {
		m := m
		f.Add(AppendFrame(nil, &m))
	}
	// One frame from each link type range: a migration hello and a
	// replication record. Decode must refuse both at the type check.
	f.Add(AppendOpaque(nil, 0x10, []byte("\x02\x01\x00\x00\x00\x00\x00\x00\x00\x05\x00mig-1\x00\x00\x00\x00")))
	f.Add(AppendOpaque(nil, 0x24, []byte("\x01\x00\x00\x00\x00\x00\x00\x00\x02record")))
	// A CRC-valid frame whose stream id overflows uint64.
	f.Add(overflowFrame(0x24, 0x02))
	f.Add([]byte{})
	f.Add([]byte{Magic})
	f.Add([]byte{Magic, THello, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{Magic}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf []byte
		typ, _, oerr := ReadOpaque(bufio.NewReader(bytes.NewReader(data)), &buf)
		var m Msg
		if err := Decode(data, &m); err != nil {
			return
		}
		if oerr != nil || typ != m.Type || len(buf) != len(data) {
			t.Fatalf("netauth frame of type 0x%02x is not a link frame: type 0x%02x, %d of %d bytes, %v",
				m.Type, typ, len(buf), len(data), oerr)
		}
		re := AppendFrame(nil, &m)
		var m2 Msg
		if err := Decode(re, &m2); err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if m.Type != m2.Type || m.Stream != m2.Stream || m.ChipID != m2.ChipID ||
			m.Batch != m2.Batch || m.Caps != m2.Caps || m.Width != m2.Width ||
			m.Count != m2.Count || m.Approved != m2.Approved ||
			m.Mismatches != m2.Mismatches || m.Code != m2.Code ||
			m.Retryable != m2.Retryable || m.Redirect != m2.Redirect ||
			m.ErrMsg != m2.ErrMsg || m.M != m2.M || m.T != m2.T ||
			m.Cipher != m2.Cipher ||
			!bytes.Equal(m.Session, m2.Session) || !bytes.Equal(m.Packed, m2.Packed) ||
			!bytes.Equal(m.Helper, m2.Helper) || !bytes.Equal(m.MAC, m2.MAC) ||
			!bytes.Equal(m.Digest, m2.Digest) || !bytes.Equal(m.Data, m2.Data) {
			t.Fatalf("round trip changed fields:\n  in:  %+v\n  out: %+v", m, m2)
		}
	})
}

// FuzzV2ReadMessage streams arbitrary bytes through the buffered frame
// reader. It must terminate (bounded reads), never panic, and stop at
// the first malformed frame.
func FuzzV2ReadMessage(f *testing.F) {
	var stream []byte
	for _, m := range fuzzSeeds() {
		m := m
		stream = AppendFrame(stream, &m)
	}
	f.Add(stream)
	f.Add([]byte{Magic, 0xFF})
	f.Add(append([]byte{'\n'}, stream...)) // a stray byte before the first frame
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bufio.NewReader(bytes.NewReader(data)))
		defer r.Release()
		var m Msg
		for i := 0; i < 64; i++ {
			if _, err := r.Next(&m); err != nil {
				return
			}
		}
	})
}

func fuzzSeeds() []Msg {
	sess := []byte{8, 7, 6, 5, 4, 3, 2, 1}
	return []Msg{
		{Type: THello, Stream: 1, ChipID: "chip-0", Batch: 8, Caps: 1},
		{Type: TChallenges, Stream: 1, Session: sess, Width: 64, Count: 2,
			Packed: make([]byte, PackedLen(128))},
		{Type: TResponses, Stream: 1, Session: sess, Count: 2, Packed: []byte{0x03}},
		{Type: TVerdict, Stream: 1, Approved: true},
		{Type: TError, Code: 2, Retryable: true, Redirect: "a:1", ErrMsg: "nope"},
		{Type: TKeyexInit, Stream: 1, ChipID: "chip-1", Caps: 1},
		{Type: TKeyexOffer, Stream: 1, Session: sess, M: 8, T: 16,
			Cipher: CipherChaCha20, Width: 16, Count: 8,
			Packed: make([]byte, PackedLen(128)), Helper: []byte{0xAA}},
		{Type: TKeyexConfirm, Stream: 1, Session: sess, MAC: make([]byte, MACLen)},
		{Type: TPayload, Stream: 1, Session: sess, Digest: make([]byte, DigestLen),
			Data: []byte("data")},
		{Type: TBye},
	}
}
