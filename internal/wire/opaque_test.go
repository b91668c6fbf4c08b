package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"testing"
)

// TestOpaqueRoundTrip: link frames of every size class — empty, small, and
// larger than the first growth step — come back with their type and
// payload intact, through one reused buffer, and len(*buf) is the frame's
// size on the wire.
func TestOpaqueRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, []byte("seq|type|record"), bytes.Repeat([]byte{0xA5}, 3*growStep+7)}
	var stream []byte
	for i, p := range payloads {
		stream = AppendOpaque(stream, byte(0x20+i), p)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	total := 0
	for i, want := range payloads {
		typ, got, err := ReadOpaque(br, &buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != byte(0x20+i) || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: type 0x%02x, %d payload bytes; want 0x%02x, %d", i, typ, len(got), 0x20+i, len(want))
		}
		total += len(buf)
	}
	if total != len(stream) {
		t.Fatalf("frame sizes sum to %d, stream is %d bytes", total, len(stream))
	}
	if _, _, err := ReadOpaque(br, &buf); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

// TestOpaqueRejectsCorruption: every single-byte flip of a link frame is
// refused as a frame error, never returned as a payload.
func TestOpaqueRejectsCorruption(t *testing.T) {
	frame := AppendOpaque(nil, 0x24, []byte("one WAL record"))
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		var buf []byte
		if _, _, err := ReadOpaque(bufio.NewReader(bytes.NewReader(bad)), &buf); !errors.Is(err, ErrFrame) {
			t.Fatalf("corrupting byte %d: err = %v, want ErrFrame", i, err)
		}
	}
}

// overflowFrame is a frame with a valid CRC whose stream id is a 10-byte
// varint ending in last: 0x01 is the largest legal id, 0x02–0x7f overflow
// uint64. The CRC is no secret, so any peer can send one.
func overflowFrame(typ, last byte) []byte {
	f := append([]byte{Magic, typ}, bytes.Repeat([]byte{0xff}, 9)...)
	f = append(f, last, 0, 0, 0, 0)
	return binary.LittleEndian.AppendUint32(f, crc32.ChecksumIEEE(f))
}

// TestOverflowingStreamIDIsFrameError: every reader refuses a stream id
// that binary.Uvarint rejects with a frame error — the link reader slices
// its payload behind the id, and must never panic on one — while the
// largest legal id still reads.
func TestOverflowingStreamIDIsFrameError(t *testing.T) {
	readers := map[string]func(br *bufio.Reader) error{
		"opaque": func(br *bufio.Reader) error {
			var buf []byte
			_, _, err := ReadOpaque(br, &buf)
			return err
		},
		"raw": func(br *bufio.Reader) error { _, err := ReadRawFrame(br); return err },
		"netauth": func(br *bufio.Reader) error {
			r := NewReader(br)
			defer r.Release()
			var m Msg
			_, err := r.Next(&m)
			return err
		},
	}
	for name, read := range readers {
		for last := byte(0x02); last < 0x80; last++ {
			if err := read(bufio.NewReader(bytes.NewReader(overflowFrame(0x20, last)))); !errors.Is(err, ErrFrame) {
				t.Fatalf("%s reader, last varint byte 0x%02x: err = %v, want ErrFrame", name, last, err)
			}
		}
	}
	var buf []byte
	typ, payload, err := ReadOpaque(bufio.NewReader(bytes.NewReader(overflowFrame(0x20, 0x01))), &buf)
	if err != nil || typ != 0x20 || len(payload) != 0 {
		t.Fatalf("largest stream id: (0x%02x, %q, %v), want an empty 0x20 frame", typ, payload, err)
	}
}

// TestNetauthFrameIsOpaqueFrame: the two decoders agree on the framing —
// every netauth frame reads as an opaque frame of the same type whose
// payload is the bytes between the length and the CRC.
func TestNetauthFrameIsOpaqueFrame(t *testing.T) {
	for _, m := range sampleMsgs() {
		m := m
		frame := AppendFrame(nil, &m)
		var buf []byte
		typ, payload, err := ReadOpaque(bufio.NewReader(bytes.NewReader(frame)), &buf)
		if err != nil || typ != m.Type || !bytes.Equal(buf, frame) {
			t.Fatalf("type 0x%02x: opaque read = (0x%02x, %v)", m.Type, typ, err)
		}
		body := frame[:len(frame)-4]
		if !bytes.HasSuffix(body, payload) || binary.LittleEndian.Uint32(body[len(body)-len(payload)-4:]) != uint32(len(payload)) {
			t.Fatalf("type 0x%02x: payload is not the frame body", m.Type)
		}
	}
}

// TestDeclaredLengthCommitsNoMemory: a header that declares a payload near
// the cap and then ends must cost a frame error, not the declared
// allocation — on the netauth reader (MaxPayload) and on the link reader
// (MaxLinkPayload), whose ports accept any number of connections.
func TestDeclaredLengthCommitsNoMemory(t *testing.T) {
	header := func(typ byte, declared uint32) []byte {
		h := []byte{Magic, typ, 0}
		h = binary.LittleEndian.AppendUint32(h, declared)
		return append(h, "a few payload bytes, then EOF"...)
	}
	cases := []struct {
		name string
		data []byte
		read func(br *bufio.Reader) error
	}{
		{"netauth", header(THello, MaxPayload), func(br *bufio.Reader) error {
			r := NewReader(br)
			defer r.Release()
			var m Msg
			_, err := r.Next(&m)
			return err
		}},
		{"link", header(0x24, 60<<20), func(br *bufio.Reader) error {
			var buf []byte
			_, _, err := ReadOpaque(br, &buf)
			return err
		}},
	}
	for _, tc := range cases {
		br := bufio.NewReader(bytes.NewReader(tc.data))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := tc.read(br)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrFrame) {
			t.Fatalf("%s: err = %v, want a frame error", tc.name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256<<10 {
			t.Fatalf("%s: truncated frame allocated %d bytes, want < 256 KiB", tc.name, alloc)
		}
	}
}

// TestPoolRefusesLinkSizedBuffers: a buffer grown to hold a replication
// frame is dropped on return instead of pinning its capacity in the pool
// that serves the session hot path.
func TestPoolRefusesLinkSizedBuffers(t *testing.T) {
	big := make([]byte, 0, maxPooledCap+1)
	PutBuf(&big)
	for i := 0; i < 64; i++ {
		if b := GetBuf(); cap(*b) > maxPooledCap {
			t.Fatalf("pool handed out a %d-byte buffer", cap(*b))
		}
	}
}

// opaqueCRC recomputes a frame's checksum after a test edits its header.
func opaqueCRC(frame []byte) []byte {
	n := len(frame) - 4
	binary.LittleEndian.PutUint32(frame[n:], crc32.ChecksumIEEE(frame[:n]))
	return frame
}

// TestOpaqueCapIsMaxLinkPayload: the link reader accepts a payload the
// netauth reader refuses, and refuses one past its own cap at the header.
func TestOpaqueCapIsMaxLinkPayload(t *testing.T) {
	frame := AppendOpaque(nil, 0x22, make([]byte, MaxPayload+1))
	var buf []byte
	if _, _, err := ReadOpaque(bufio.NewReader(bytes.NewReader(frame)), &buf); err != nil {
		t.Fatalf("link frame above the netauth cap: %v", err)
	}
	r := NewReader(bufio.NewReader(bytes.NewReader(frame)))
	defer r.Release()
	var m Msg
	if _, err := r.Next(&m); !errors.Is(err, ErrFrame) {
		t.Fatalf("netauth reader took a %d-byte payload: %v", MaxPayload+1, err)
	}
	over := AppendOpaque(nil, 0x22, nil)
	binary.LittleEndian.PutUint32(over[3:], MaxLinkPayload+1)
	if _, _, err := ReadOpaque(bufio.NewReader(bytes.NewReader(opaqueCRC(over))), &buf); !errors.Is(err, ErrFrame) {
		t.Fatalf("payload past MaxLinkPayload: err = %v, want ErrFrame", err)
	}
}
