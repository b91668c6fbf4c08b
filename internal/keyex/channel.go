package keyex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"xorpuf/internal/keyex/aead"
)

// MaxFrame caps one encrypted frame's ciphertext, matching the plain
// protocol's 1 MiB frame payload limit so neither mode admits larger
// messages.
const MaxFrame = 1 << 20

// ErrFrameTooLarge is returned for frames whose length prefix exceeds
// MaxFrame — checked before any allocation, since the prefix is
// attacker-controlled.
var ErrFrameTooLarge = errors.New("keyex: encrypted frame exceeds size limit")

// ErrChannelAuth is returned when a frame fails AEAD authentication; the
// channel is unusable afterwards.
var ErrChannelAuth = errors.New("keyex: encrypted frame failed authentication")

// Channel is the encrypted session transport: length-prefixed
// ChaCha20-Poly1305 frames over an established connection, one key and one
// nonce counter per direction, every frame bound to the handshake
// transcript as additional data.  It carries the same binary frames as a
// plain connection; only the outer framing changes.
//
// A Channel is not safe for concurrent use, matching the strictly
// alternating request/response protocol it carries.
type Channel struct {
	rw         io.ReadWriter
	sendKey    [aead.KeySize]byte
	recvKey    [aead.KeySize]byte
	transcript [32]byte
	sendSeq    uint64
	recvSeq    uint64
	broken     bool
}

// NewChannel wraps an established connection.  client selects which
// directional keys are used for sending: the client sends with C2S and
// receives with S2C, the server the reverse.
func NewChannel(rw io.ReadWriter, keys SessionKeys, transcript [32]byte, client bool) *Channel {
	ch := &Channel{rw: rw, transcript: transcript}
	if client {
		ch.sendKey, ch.recvKey = keys.C2S, keys.S2C
	} else {
		ch.sendKey, ch.recvKey = keys.S2C, keys.C2S
	}
	return ch
}

// nonceFor builds the 96-bit nonce for a sequence number: 4 zero bytes then
// the counter big-endian.  Each direction has its own key, so counters may
// collide across directions without nonce reuse.
func nonceFor(seq uint64) [aead.NonceSize]byte {
	var n [aead.NonceSize]byte
	binary.BigEndian.PutUint64(n[4:], seq)
	return n
}

// WriteFrame seals payload and writes one length-prefixed frame.
func (ch *Channel) WriteFrame(payload []byte) error {
	if ch.broken {
		return ErrChannelAuth
	}
	if len(payload)+aead.Overhead > MaxFrame {
		return ErrFrameTooLarge
	}
	nonce := nonceFor(ch.sendSeq)
	ch.sendSeq++
	buf := make([]byte, 4, 4+len(payload)+aead.Overhead)
	buf = aead.Seal(buf, &ch.sendKey, &nonce, payload, ch.transcript[:])
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	_, err := ch.rw.Write(buf)
	return err
}

// ReadFrame reads and opens one frame.  The length prefix is validated
// against MaxFrame before the frame body is allocated; any authentication
// failure poisons the channel.  So does any I/O error after the first byte
// of a frame has been consumed (a deadline expiring mid-frame, a short
// read): the stream offset is then desynchronized, and letting a caller
// retry would feed the tail of a half-read frame to the AEAD as if it were
// a fresh one.
func (ch *Channel) ReadFrame() ([]byte, error) {
	if ch.broken {
		return nil, ErrChannelAuth
	}
	var hdr [4]byte
	if n, err := io.ReadFull(ch.rw, hdr[:]); err != nil {
		if n > 0 {
			ch.broken = true
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		ch.broken = true
		return nil, ErrFrameTooLarge
	}
	if n < aead.Overhead {
		ch.broken = true
		return nil, fmt.Errorf("keyex: encrypted frame length %d below AEAD overhead", n)
	}
	box := make([]byte, n)
	if _, err := io.ReadFull(ch.rw, box); err != nil {
		ch.broken = true
		return nil, err
	}
	nonce := nonceFor(ch.recvSeq)
	plaintext, err := aead.Open(nil, &ch.recvKey, &nonce, box, ch.transcript[:])
	if err != nil {
		ch.broken = true
		return nil, ErrChannelAuth
	}
	ch.recvSeq++
	return plaintext, nil
}

// Broken reports whether the channel has been poisoned by an
// authentication failure (or closed) and will refuse further frames.
func (ch *Channel) Broken() bool { return ch.broken }

// Close zeroizes the channel keys.  The underlying connection is owned by
// the caller and is not closed here.
func (ch *Channel) Close() {
	Zeroize(ch.sendKey[:])
	Zeroize(ch.recvKey[:])
	ch.broken = true
}
