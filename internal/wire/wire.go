// Package wire is the one framed codec for every byte this repository
// puts on the network. Every frame has the same shape:
//
//	magic (1 byte, 0xF2) | type (1 byte) | stream (uvarint) |
//	payload length (uint32 LE) | payload | crc32 (uint32 LE)
//
// The CRC (IEEE polynomial) covers every byte of the frame before it. A
// byte other than the magic where a frame should begin is a frame error,
// so anything that is not a frame is refused at the first byte.
//
// Three protocols share the framing in disjoint type ranges, so a link
// wired to the wrong port is refused at the type check:
//
//	0x01–0x0C  netauth sessions: the T* constants, decoded into Msg
//	0x10–0x1A  chip-range migration (internal/registry/rebalance)
//	0x20–0x28  WAL-shipping replication (internal/registry/repl)
//
// There are two payload caps: MaxPayload for netauth frames and
// MaxLinkPayload for the opaque replication and migration frames
// (AppendOpaque, WriteOpaque, ReadOpaque), which carry whole WAL records.
// Every reader accepts only stream ids binary.Uvarint parses, and grows
// its buffer only as payload bytes arrive, so a declared length commits
// no memory the peer has not sent.
//
// Netauth payload fields are varint-coded where variable and fixed-width
// where the size is part of the protocol (8-byte session ids, 32-byte MACs
// and digests). Challenge, response, and helper bits travel packed eight
// per byte, LSB-first.
//
// Decoding never retains references outside the input frame: byte-slice
// fields of Msg alias the frame buffer, so a caller that reuses buffers
// (see pool.go) must consume the Msg before the next read. That aliasing
// is what makes the steady-state read path allocation-free.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic is the first byte of every frame. It is deliberately outside the
// ASCII range so no JSON or other text line can be mistaken for a frame.
const Magic = 0xF2

// Frame types.
const (
	THello        = 0x01 // device → server: chip id, batch size, capability bits
	TChallenges   = 0x02 // server → device: session id + packed challenge bits
	TResponses    = 0x03 // device → server: session id + packed response bits
	TVerdict      = 0x04 // server → device: approved flag + mismatch count
	TError        = 0x05 // either direction: structured refusal
	TKeyexInit    = 0x06 // device → server: start a key exchange
	TKeyexOffer   = 0x07 // server → device: BCH geometry, challenges, helper data
	TKeyexConfirm = 0x08 // device → server: confirmation MAC
	TKeyexAccept  = 0x09 // server → device: confirmation MAC
	TPayload      = 0x0A // either direction inside a channel: raw data + digest
	TPayloadAck   = 0x0B // receiver → sender: digest echo
	TBye          = 0x0C // orderly close of a multiplexed connection
)

// Hello capability bits.
const (
	CapChaCha20Poly1305 = 1 << 0 // device can run the AEAD channel
)

// Cipher identifiers for TKeyexOffer.
const (
	CipherNone     = 0x00
	CipherChaCha20 = 0x01 // chacha20poly1305
)

// Size limits, enforced on decode.
const (
	MaxPayload = 1 << 20
	MaxBatch   = 256   // hello batch size
	MaxCount   = 65536 // challenge/response vectors per frame
	MaxWidth   = 4096  // bits per challenge
	SessionLen = 8
	MACLen     = 32
	DigestLen  = 32
	// MaxTrace bounds the optional trace-context extension string on
	// THello/TKeyexInit. A dtrace context is exactly 49 characters; the
	// slack leaves room for a future versioned form without admitting
	// megabyte "contexts".
	MaxTrace = 64
)

// MaxLinkPayload caps the payload of an opaque replication or migration
// frame: the registry bounds a WAL record payload at 1<<26, plus the
// seq/type prefix of a record frame.
const MaxLinkPayload = 1<<26 + 16

var (
	// ErrFrame is wrapped by every malformed-frame error so callers can
	// map any decode failure to a single retryable bad_message refusal.
	ErrFrame = errors.New("wire: bad frame")
	// ErrNotV2 reports that a frame did not begin with Magic. It wraps
	// ErrFrame: bytes of any other protocol are just a malformed frame.
	ErrNotV2 = fmt.Errorf("%w: first byte is not the v2 magic", ErrFrame)
)

func frameErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFrame, fmt.Sprintf(format, args...))
}

// Msg is a decoded v2 frame. Byte-slice fields alias the frame buffer
// they were decoded from and are only valid until that buffer is reused.
type Msg struct {
	Type   byte
	Stream uint64

	// THello / TKeyexInit.
	ChipID string
	Batch  int
	Caps   uint64
	// Trace is the optional distributed-trace context ("32hex-16hex",
	// see internal/telemetry/dtrace), carried as a trailing extension on
	// THello/TKeyexInit. Opaque at this layer: the codec bounds its
	// length but does not validate its shape, and a malformed extension
	// decodes as absent rather than as a frame error.
	Trace string

	// TChallenges / TResponses / TKeyexOffer: Session is the 8-byte
	// session id; Count challenges (or response bits) of Width bits each
	// are packed LSB-first in Packed. Helper carries the keyex helper
	// bits (Count of them) for TKeyexOffer.
	Session []byte
	Width   int
	Count   int
	Packed  []byte
	Helper  []byte
	M, T    int
	Cipher  byte

	// TVerdict.
	Approved   bool
	Mismatches int

	// TError.
	Code      byte
	Retryable bool
	Redirect  string
	ErrMsg    string

	// TKeyexConfirm / TKeyexAccept.
	MAC []byte

	// TPayload / TPayloadAck.
	Digest []byte
	Data   []byte
}

// Reset clears every field so a pooled Msg cannot leak state between
// frames.
func (m *Msg) Reset() {
	*m = Msg{}
}

// PackBits appends bits (one 0/1 value per byte, as used by
// challenge.Challenge and response vectors) packed eight per byte,
// LSB-first, to dst.
func PackBits(dst []byte, bits []uint8) []byte {
	n := (len(bits) + 7) / 8
	off := len(dst)
	for i := 0; i < n; i++ {
		dst = append(dst, 0)
	}
	for i, b := range bits {
		if b&1 == 1 {
			dst[off+i/8] |= 1 << (i % 8)
		}
	}
	return dst
}

// UnpackBits appends n unpacked bits (one byte each, value 0 or 1) from
// packed to dst. packed must hold at least (n+7)/8 bytes.
func UnpackBits(dst []uint8, packed []byte, n int) []uint8 {
	for i := 0; i < n; i++ {
		dst = append(dst, packed[i/8]>>(i%8)&1)
	}
	return dst
}

// Bit reads bit i from a packed vector without unpacking it.
func Bit(packed []byte, i int) uint8 {
	return packed[i/8] >> (i % 8) & 1
}

// PackedLen is the packed size in bytes of n bits.
func PackedLen(n int) int { return (n + 7) / 8 }

func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendFrame appends the encoded frame for m to dst and returns the
// extended slice. The inverse of Decode. Field values outside the
// protocol's limits are the caller's bug; they are caught by the decoder
// on the other side, and by the round-trip property tests here.
func AppendFrame(dst []byte, m *Msg) []byte {
	start := len(dst)
	dst = append(dst, Magic, m.Type)
	dst = appendUvarint(dst, m.Stream)
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // payload length backfilled below
	payloadAt := len(dst)

	switch m.Type {
	case THello, TKeyexInit:
		dst = appendString(dst, m.ChipID)
		dst = appendUvarint(dst, uint64(m.Batch))
		dst = appendUvarint(dst, m.Caps)
		// Trace context rides as a trailing extension so a pre-extension
		// peer sees a byte-identical frame when no trace is attached.
		if m.Trace != "" {
			dst = appendString(dst, m.Trace)
		}
	case TChallenges:
		dst = append(dst, m.Session...)
		dst = appendUvarint(dst, uint64(m.Width))
		dst = appendUvarint(dst, uint64(m.Count))
		dst = append(dst, m.Packed...)
	case TResponses:
		dst = append(dst, m.Session...)
		dst = appendUvarint(dst, uint64(m.Count))
		dst = append(dst, m.Packed...)
	case TVerdict:
		var flags byte
		if m.Approved {
			flags |= 1
		}
		dst = append(dst, flags)
		dst = appendUvarint(dst, uint64(m.Mismatches))
	case TError:
		var flags byte
		if m.Retryable {
			flags |= 1
		}
		dst = append(dst, m.Code, flags)
		dst = appendString(dst, m.Redirect)
		dst = appendString(dst, m.ErrMsg)
	case TKeyexOffer:
		dst = append(dst, m.Session...)
		dst = appendUvarint(dst, uint64(m.M))
		dst = appendUvarint(dst, uint64(m.T))
		dst = append(dst, m.Cipher)
		dst = appendUvarint(dst, uint64(m.Width))
		dst = appendUvarint(dst, uint64(m.Count))
		dst = append(dst, m.Packed...)
		dst = append(dst, m.Helper...)
	case TKeyexConfirm, TKeyexAccept:
		dst = append(dst, m.Session...)
		dst = append(dst, m.MAC...)
	case TPayload:
		dst = append(dst, m.Session...)
		dst = append(dst, m.Digest...)
		dst = appendUvarint(dst, uint64(len(m.Data)))
		dst = append(dst, m.Data...)
	case TPayloadAck:
		dst = append(dst, m.Session...)
		dst = append(dst, m.Digest...)
	case TBye:
		// empty payload
	}

	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-payloadAt))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// AppendOpaque appends a stream-0 frame of type typ carrying payload
// verbatim — the replication and migration links' encoder, whose payload
// layouts belong to their own packages.
func AppendOpaque(dst []byte, typ byte, payload []byte) []byte {
	return AppendOpaqueHead(dst, typ, nil, payload)
}

// AppendOpaqueHead appends the frame AppendOpaque writes for the payload
// head ‖ body, without building the joined payload first.
func AppendOpaqueHead(dst []byte, typ byte, head, body []byte) []byte {
	start := len(dst)
	dst = append(dst, Magic, typ, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(head)+len(body)))
	dst = append(dst, head...)
	dst = append(dst, body...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// WriteOpaque writes one link frame to w as a single write.
func WriteOpaque(w io.Writer, typ byte, payload []byte) error {
	_, err := w.Write(AppendOpaque(nil, typ, payload))
	return err
}

// checkCRC verifies the trailing checksum of a complete frame.
func checkCRC(frame []byte) error {
	n := len(frame) - 4
	if n < 0 || crc32.ChecksumIEEE(frame[:n]) != binary.LittleEndian.Uint32(frame[n:]) {
		return frameErr("crc mismatch")
	}
	return nil
}

// cursor walks a payload during decode.
type cursor struct {
	b []byte
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		return 0, frameErr("truncated varint")
	}
	c.b = c.b[n:]
	return v, nil
}

func (c *cursor) take(n int) ([]byte, error) {
	if n < 0 || len(c.b) < n {
		return nil, frameErr("truncated field: want %d bytes, have %d", n, len(c.b))
	}
	b := c.b[:n]
	c.b = c.b[n:]
	return b, nil
}

func (c *cursor) byte() (byte, error) {
	b, err := c.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (c *cursor) str(max int) (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(max) {
		return "", frameErr("string of %d bytes exceeds cap %d", n, max)
	}
	b, err := c.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (c *cursor) boundedInt(max int, what string) (int, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(max) {
		return 0, frameErr("%s %d exceeds cap %d", what, v, max)
	}
	return int(v), nil
}

// Decode parses a complete raw frame (as produced by AppendFrame or read
// by ReadRawFrame) into m. Byte-slice fields of m alias frame.
func Decode(frame []byte, m *Msg) error {
	m.Reset()
	if len(frame) < 2+1+4+4 {
		return frameErr("frame of %d bytes is shorter than any legal frame", len(frame))
	}
	if frame[0] != Magic {
		return ErrNotV2
	}
	if err := checkCRC(frame); err != nil {
		return err
	}
	m.Type = frame[1]
	c := cursor{b: frame[2 : len(frame)-4]}
	stream, err := c.uvarint()
	if err != nil {
		return err
	}
	m.Stream = stream
	plenB, err := c.take(4)
	if err != nil {
		return err
	}
	plen := binary.LittleEndian.Uint32(plenB)
	if plen > MaxPayload {
		return frameErr("payload of %d bytes exceeds cap %d", plen, MaxPayload)
	}
	if uint32(len(c.b)) != plen {
		return frameErr("payload length %d does not match remaining %d bytes", plen, len(c.b))
	}
	return decodePayload(&c, m)
}

func decodePayload(c *cursor, m *Msg) error {
	var err error
	switch m.Type {
	case THello, TKeyexInit:
		if m.ChipID, err = c.str(256); err != nil {
			return err
		}
		if m.Batch, err = c.boundedInt(MaxBatch, "batch"); err != nil {
			return err
		}
		if m.Caps, err = c.uvarint(); err != nil {
			return err
		}
		// Anything after Caps is the optional extension area. Unlike every
		// other frame type, hello tolerates it instead of rejecting
		// trailing bytes: the first extension field is the trace-context
		// string, and a malformed or oversized extension is consumed and
		// dropped — a hostile trace field can cost the trace, never the
		// session. Bytes after the trace string are reserved for future
		// extensions and likewise ignored.
		if len(c.b) != 0 {
			if tr, terr := c.str(MaxTrace); terr == nil {
				m.Trace = tr
			}
			c.b = nil
		}
	case TChallenges:
		if m.Session, err = c.take(SessionLen); err != nil {
			return err
		}
		if m.Width, err = c.boundedInt(MaxWidth, "width"); err != nil {
			return err
		}
		if m.Count, err = c.boundedInt(MaxCount, "count"); err != nil {
			return err
		}
		if m.Packed, err = c.take(PackedLen(m.Width * m.Count)); err != nil {
			return err
		}
	case TResponses:
		if m.Session, err = c.take(SessionLen); err != nil {
			return err
		}
		if m.Count, err = c.boundedInt(MaxCount, "count"); err != nil {
			return err
		}
		if m.Packed, err = c.take(PackedLen(m.Count)); err != nil {
			return err
		}
	case TVerdict:
		flags, err := c.byte()
		if err != nil {
			return err
		}
		m.Approved = flags&1 == 1
		if m.Mismatches, err = c.boundedInt(MaxCount, "mismatches"); err != nil {
			return err
		}
	case TError:
		if m.Code, err = c.byte(); err != nil {
			return err
		}
		flags, err := c.byte()
		if err != nil {
			return err
		}
		m.Retryable = flags&1 == 1
		if m.Redirect, err = c.str(256); err != nil {
			return err
		}
		if m.ErrMsg, err = c.str(1024); err != nil {
			return err
		}
	case TKeyexOffer:
		if m.Session, err = c.take(SessionLen); err != nil {
			return err
		}
		if m.M, err = c.boundedInt(16, "bch m"); err != nil {
			return err
		}
		if m.T, err = c.boundedInt(64, "bch t"); err != nil {
			return err
		}
		if m.Cipher, err = c.byte(); err != nil {
			return err
		}
		if m.Width, err = c.boundedInt(MaxWidth, "width"); err != nil {
			return err
		}
		if m.Count, err = c.boundedInt(MaxCount, "count"); err != nil {
			return err
		}
		if m.Packed, err = c.take(PackedLen(m.Width * m.Count)); err != nil {
			return err
		}
		if m.Helper, err = c.take(PackedLen(m.Count)); err != nil {
			return err
		}
	case TKeyexConfirm, TKeyexAccept:
		if m.Session, err = c.take(SessionLen); err != nil {
			return err
		}
		if m.MAC, err = c.take(MACLen); err != nil {
			return err
		}
	case TPayload:
		if m.Session, err = c.take(SessionLen); err != nil {
			return err
		}
		if m.Digest, err = c.take(DigestLen); err != nil {
			return err
		}
		n, err := c.boundedInt(MaxPayload, "payload data")
		if err != nil {
			return err
		}
		if m.Data, err = c.take(n); err != nil {
			return err
		}
	case TPayloadAck:
		if m.Session, err = c.take(SessionLen); err != nil {
			return err
		}
		if m.Digest, err = c.take(DigestLen); err != nil {
			return err
		}
	case TBye:
		// empty payload
	default:
		return frameErr("unknown frame type 0x%02x", m.Type)
	}
	if len(c.b) != 0 {
		return frameErr("%d trailing bytes after payload", len(c.b))
	}
	return nil
}

// Reader reads v2 frames from a buffered stream into a reused internal
// buffer, so the steady-state read path performs no allocations. The
// Msg passed to Next aliases that buffer and is valid until the next
// call. Release returns the buffer to the pool.
type Reader struct {
	br  *bufio.Reader
	buf *[]byte
}

// NewReader wraps br. Call Release when the connection is done to
// return the internal buffer to the pool.
func NewReader(br *bufio.Reader) *Reader {
	return &Reader{br: br, buf: GetBuf()}
}

// Release returns the internal buffer to the pool. The Reader must not
// be used afterwards.
func (r *Reader) Release() {
	if r.buf != nil {
		PutBuf(r.buf)
		r.buf = nil
	}
}

// Next reads one frame and decodes it into m. It returns the total
// frame size in bytes alongside any error. io.EOF is returned verbatim
// when the stream ends cleanly before a frame starts.
func (r *Reader) Next(m *Msg) (int, error) {
	n, err := readFrame(r.br, r.buf, MaxPayload)
	if err != nil {
		return n, err
	}
	return n, Decode(*r.buf, m)
}

// growStep is the least a frame buffer grows by while a payload is being
// received; beyond it the buffer at most doubles, so the memory committed
// to a frame stays within a small multiple of the bytes actually read.
const growStep = 64 << 10

// readFrame reads one complete frame into *buf (reusing its capacity)
// and reports its size. The payload may not exceed maxPayload. Errors
// after the first byte has been consumed wrap ErrFrame (or are I/O
// errors); a clean EOF before any byte is io.EOF.
func readFrame(br *bufio.Reader, buf *[]byte, maxPayload uint32) (int, error) {
	b := (*buf)[:0]
	b0, err := br.ReadByte()
	if err != nil {
		return 0, err
	}
	if b0 != Magic {
		_ = br.UnreadByte()
		return 0, ErrNotV2
	}
	typ, err := br.ReadByte()
	if err != nil {
		return 1, frameErr("truncated header: %v", err)
	}
	b = append(b, b0, typ)
	// Stream id varint, at most 10 bytes and within uint64 — exactly what
	// binary.Uvarint accepts, so every frame read here has a parsable header.
	for i := 0; ; i++ {
		if i == binary.MaxVarintLen64 {
			*buf = b
			return len(b), frameErr("stream varint too long")
		}
		vb, err := br.ReadByte()
		if err != nil {
			*buf = b
			return len(b), frameErr("truncated stream id: %v", err)
		}
		b = append(b, vb)
		if i == binary.MaxVarintLen64-1 && vb > 1 {
			*buf = b
			return len(b), frameErr("stream varint overflows uint64")
		}
		if vb < 0x80 {
			break
		}
	}
	// The 4 length bytes are read one at a time: a stack array passed to
	// io.ReadFull escapes through the interface and costs an allocation
	// per frame.
	for i := 0; i < 4; i++ {
		vb, err := br.ReadByte()
		if err != nil {
			*buf = b
			return len(b), frameErr("truncated length: %v", err)
		}
		b = append(b, vb)
	}
	plen := binary.LittleEndian.Uint32(b[len(b)-4:])
	if plen > maxPayload {
		*buf = b
		return len(b), frameErr("payload of %d bytes exceeds cap %d", plen, maxPayload)
	}
	head := len(b)
	need := head + int(plen) + 4
	// Fill the buffer to its capacity, growing only once it is full: the
	// declared length is the peer's claim, the received bytes are fact.
	for len(b) < need {
		if len(b) == cap(b) {
			n := max(2*cap(b), growStep)
			nb := make([]byte, len(b), min(n, need))
			copy(nb, b)
			b = nb
		}
		k, err := io.ReadFull(br, b[len(b):min(cap(b), need)])
		b = b[:len(b)+k]
		if err != nil {
			*buf = b[:head]
			return head, frameErr("truncated payload: %v", err)
		}
	}
	*buf = b
	return need, nil
}

// ReadRawFrame reads one complete netauth frame from br into a fresh
// buffer and verifies its CRC, without interpreting the payload beyond
// the header. It is the gateway's forwarding primitive: the returned
// bytes can be relayed verbatim and separately decoded with Decode.
func ReadRawFrame(br *bufio.Reader) ([]byte, error) {
	buf := make([]byte, 0, 512)
	if _, err := readFrame(br, &buf, MaxPayload); err != nil {
		return nil, err
	}
	if err := checkCRC(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadOpaque reads one frame of up to MaxLinkPayload payload bytes into
// *buf and verifies its CRC — the replication and migration links'
// decoder, the inverse of AppendOpaque. It returns the frame type and the
// payload, which aliases *buf and is valid until *buf is reused; *buf
// holds the whole frame, so len(*buf) is its size on the wire. The stream
// id is not interpreted.
func ReadOpaque(br *bufio.Reader, buf *[]byte) (byte, []byte, error) {
	if _, err := readFrame(br, buf, MaxLinkPayload); err != nil {
		return 0, nil, err
	}
	frame := *buf
	if err := checkCRC(frame); err != nil {
		return 0, nil, err
	}
	_, n := binary.Uvarint(frame[2:]) // readFrame admits only ids this parses
	if n <= 0 {
		return 0, nil, frameErr("malformed stream id")
	}
	return frame[1], frame[2+n+4 : len(frame)-4], nil
}
