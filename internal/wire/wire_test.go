package wire

import (
	"bufio"
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// sampleMsgs covers every frame type with representative field values.
func sampleMsgs() []Msg {
	sess := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	mac := bytes.Repeat([]byte{0xAA}, MACLen)
	dig := bytes.Repeat([]byte{0xBB}, DigestLen)
	bits := make([]uint8, 64*4)
	for i := range bits {
		bits[i] = uint8(i % 2)
	}
	packed := PackBits(nil, bits)
	helper := PackBits(nil, bits[:4])
	return []Msg{
		{Type: THello, Stream: 7, ChipID: "chip-0042", Batch: 16, Caps: CapChaCha20Poly1305},
		{Type: THello, Stream: 8, ChipID: "chip-0042", Batch: 16, Caps: CapChaCha20Poly1305,
			Trace: "0123456789abcdef0123456789abcdef-0123456789abcdef"},
		{Type: TKeyexInit, Stream: 1, ChipID: "chip-1", Batch: 1, Caps: CapChaCha20Poly1305},
		{Type: TKeyexInit, Stream: 2, ChipID: "chip-1", Batch: 1, Caps: CapChaCha20Poly1305,
			Trace: "ffeeddccbbaa99887766554433221100-aabbccddeeff0011"},
		{Type: TChallenges, Stream: 9, Session: sess, Width: 64, Count: 4, Packed: packed},
		{Type: TResponses, Stream: 9, Session: sess, Count: 4, Packed: PackBits(nil, bits[:4])},
		{Type: TVerdict, Stream: 9, Approved: true, Mismatches: 0},
		{Type: TVerdict, Stream: 10, Approved: false, Mismatches: 3},
		{Type: TError, Stream: 0, Code: 3, Retryable: true, Redirect: "10.0.0.1:7000", ErrMsg: "throttled"},
		{Type: TKeyexOffer, Stream: 2, Session: sess, M: 8, T: 16, Cipher: CipherChaCha20, Width: 64, Count: 4, Packed: packed, Helper: helper},
		{Type: TKeyexConfirm, Stream: 2, Session: sess, MAC: mac},
		{Type: TKeyexAccept, Stream: 2, Session: sess, MAC: mac},
		{Type: TPayload, Stream: 3, Session: sess, Digest: dig, Data: []byte("hello payload")},
		{Type: TPayloadAck, Stream: 3, Session: sess, Digest: dig},
		{Type: TBye, Stream: 0},
	}
}

func msgEqual(t *testing.T, want, got *Msg) {
	t.Helper()
	if want.Type != got.Type || want.Stream != got.Stream {
		t.Fatalf("header mismatch: want type=%d stream=%d, got type=%d stream=%d",
			want.Type, want.Stream, got.Type, got.Stream)
	}
	if want.ChipID != got.ChipID || want.Batch != got.Batch || want.Caps != got.Caps ||
		want.Trace != got.Trace {
		t.Fatalf("hello fields mismatch: want %+v got %+v", want, got)
	}
	if !bytes.Equal(want.Session, got.Session) || want.Width != got.Width || want.Count != got.Count ||
		!bytes.Equal(want.Packed, got.Packed) || !bytes.Equal(want.Helper, got.Helper) {
		t.Fatalf("vector fields mismatch: want %+v got %+v", want, got)
	}
	if want.M != got.M || want.T != got.T || want.Cipher != got.Cipher {
		t.Fatalf("keyex geometry mismatch: want %+v got %+v", want, got)
	}
	if want.Approved != got.Approved || want.Mismatches != got.Mismatches {
		t.Fatalf("verdict mismatch: want %+v got %+v", want, got)
	}
	if want.Code != got.Code || want.Retryable != got.Retryable ||
		want.Redirect != got.Redirect || want.ErrMsg != got.ErrMsg {
		t.Fatalf("error fields mismatch: want %+v got %+v", want, got)
	}
	if !bytes.Equal(want.MAC, got.MAC) || !bytes.Equal(want.Digest, got.Digest) ||
		!bytes.Equal(want.Data, got.Data) {
		t.Fatalf("mac/payload mismatch: want %+v got %+v", want, got)
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	for _, m := range sampleMsgs() {
		m := m
		frame := AppendFrame(nil, &m)
		var got Msg
		if err := Decode(frame, &got); err != nil {
			t.Fatalf("type 0x%02x: decode: %v", m.Type, err)
		}
		msgEqual(t, &m, &got)
	}
}

func TestReaderStream(t *testing.T) {
	msgs := sampleMsgs()
	var stream []byte
	for i := range msgs {
		stream = AppendFrame(stream, &msgs[i])
	}
	r := NewReader(bufio.NewReader(bytes.NewReader(stream)))
	defer r.Release()
	var got Msg
	for i := range msgs {
		if _, err := r.Next(&got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		msgEqual(t, &msgs[i], &got)
	}
	if _, err := r.Next(&got); err == nil {
		t.Fatal("expected EOF after last frame")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	m := Msg{Type: THello, ChipID: "chip-1", Batch: 4, Caps: 1}
	frame := AppendFrame(nil, &m)
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		var got Msg
		if err := Decode(bad, &got); err == nil {
			// Flipping a bit inside the chip-id string with a matching
			// CRC flip is impossible here (we flipped one byte only), so
			// every single-byte corruption must be rejected.
			t.Fatalf("corrupting byte %d went undetected", i)
		}
	}
	var got Msg
	if err := Decode(frame[:len(frame)-1], &got); err == nil {
		t.Fatal("truncated frame went undetected")
	}
	if err := Decode(nil, &got); err == nil {
		t.Fatal("empty frame went undetected")
	}
}

func TestDecodeRejectsOversizedFields(t *testing.T) {
	m := Msg{Type: THello, ChipID: "c", Batch: MaxBatch + 1}
	frame := AppendFrame(nil, &m)
	var got Msg
	if err := Decode(frame, &got); err == nil {
		t.Fatal("batch above cap went undetected")
	}
	m = Msg{Type: TChallenges, Session: make([]byte, 8), Width: MaxWidth + 1, Count: 1}
	m.Packed = make([]byte, PackedLen(m.Width*m.Count))
	frame = AppendFrame(nil, &m)
	if err := Decode(frame, &got); err == nil {
		t.Fatal("width above cap went undetected")
	}
}

func TestPackUnpackBits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		bits := make([]uint8, n)
		for i := range bits {
			bits[i] = uint8(rng.Intn(2))
		}
		packed := PackBits(nil, bits)
		if len(packed) != PackedLen(n) {
			t.Fatalf("packed %d bits into %d bytes, want %d", n, len(packed), PackedLen(n))
		}
		back := UnpackBits(nil, packed, n)
		if !bytes.Equal(bits, back) {
			t.Fatalf("pack/unpack mismatch at n=%d", n)
		}
		for i := 0; i < n; i++ {
			if Bit(packed, i) != bits[i] {
				t.Fatalf("Bit(%d) = %d, want %d", i, Bit(packed, i), bits[i])
			}
		}
	}
}

// TestPoolPoisonOnReturn is the aliasing property test: any slice still
// referencing a returned buffer must read poison, never a later
// session's frames.
func TestPoolPoisonOnReturn(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	for trial := 0; trial < 100; trial++ {
		buf := GetBuf()
		m := Msg{Type: THello, ChipID: "secret-chip", Batch: 1}
		*buf = AppendFrame((*buf)[:0], &m)
		stale := *buf // a reference that outlives the session
		PutBuf(buf)
		if !Poisoned(stale) {
			t.Fatalf("trial %d: returned buffer still readable: %x", trial, stale)
		}
	}
}

// TestReaderReleasePoisonsAliases proves the Reader's decoded Msg fields
// cannot leak across sessions once the reader is released.
func TestReaderReleasePoisonsAliases(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	m := Msg{Type: TChallenges, Session: []byte{1, 2, 3, 4, 5, 6, 7, 8},
		Width: 8, Count: 2, Packed: []byte{0xFF, 0x0F}}
	frame := AppendFrame(nil, &m)
	r := NewReader(bufio.NewReader(bytes.NewReader(frame)))
	var got Msg
	if _, err := r.Next(&got); err != nil {
		t.Fatal(err)
	}
	packed := got.Packed // aliases the reader's buffer
	r.Release()
	if !Poisoned(packed) {
		t.Fatalf("alias survived Release: %x", packed)
	}
}

// TestCodecZeroAllocs pins the steady-state codec at zero allocations
// per frame in both directions.
func TestCodecZeroAllocs(t *testing.T) {
	m := Msg{Type: TChallenges, Session: []byte{1, 2, 3, 4, 5, 6, 7, 8},
		Width: 64, Count: 16}
	bits := make([]uint8, 64*16)
	m.Packed = PackBits(nil, bits)
	buf := make([]byte, 0, 4096)
	var got Msg
	allocs := testing.AllocsPerRun(1000, func() {
		buf = AppendFrame(buf[:0], &m)
		if err := Decode(buf, &got); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("codec round-trip allocates %.1f/op, want 0", allocs)
	}
}

// TestReaderZeroAllocs pins the buffered read path: after warm-up,
// reading frames from a stream must not allocate.
func TestReaderZeroAllocs(t *testing.T) {
	m := Msg{Type: TResponses, Session: []byte{1, 2, 3, 4, 5, 6, 7, 8}, Count: 64}
	m.Packed = PackBits(nil, make([]uint8, 64))
	frame := AppendFrame(nil, &m)
	stream := bytes.Repeat(frame, 2000)
	br := bufio.NewReader(bytes.NewReader(stream))
	r := NewReader(br)
	defer r.Release()
	var got Msg
	// Warm up so the internal buffer reaches capacity.
	if _, err := r.Next(&got); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := r.Next(&got); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("reader allocates %.1f/op, want 0", allocs)
	}
}

// TestNonMagicByteIsFrameError: a byte other than Magic where a frame
// should begin — a stray newline, the '{' of a JSON line — is a frame
// error, whether it opens the stream or follows a complete frame.
func TestNonMagicByteIsFrameError(t *testing.T) {
	frame := AppendFrame(nil, &Msg{Type: TBye})
	for _, stream := range [][]byte{
		append([]byte("{\"type\":\"hello\"}\n"), frame...),
		append(append(append([]byte(nil), frame...), '\n'), frame...),
	} {
		r := NewReader(bufio.NewReader(bytes.NewReader(stream)))
		var got Msg
		var err error
		for i := 0; i < 3 && err == nil; i++ {
			_, err = r.Next(&got)
		}
		r.Release()
		if !errors.Is(err, ErrNotV2) || !errors.Is(err, ErrFrame) {
			t.Fatalf("stream %q: err = %v, want ErrNotV2 wrapping ErrFrame", stream, err)
		}
	}
}
