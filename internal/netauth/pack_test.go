package netauth

import (
	"bytes"
	"encoding/binary"
	"testing"

	"xorpuf/internal/challenge"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
	"xorpuf/internal/wire"
)

// refPackChallenges packs words the per-stage way: each word expanded to a
// byte-per-stage Challenge, then appended one bit at a time, LSB-first.
// packWords must produce the same bytes.
func refPackChallenges(dst []byte, words []uint64, width int) []byte {
	var cur byte
	nb := 0
	for _, w := range words {
		for _, b := range challenge.FromWord(w, width) {
			cur |= (b & 1) << nb
			if nb++; nb == 8 {
				dst = append(dst, cur)
				cur, nb = 0, 0
			}
		}
	}
	if nb > 0 {
		dst = append(dst, cur)
	}
	return dst
}

// recordingDevice answers each challenge with its stage-0 bit and keeps
// the text of every challenge it was asked.
type recordingDevice struct{ seen []string }

func (d *recordingDevice) ReadXOR(c challenge.Challenge, _ silicon.Condition) uint8 {
	d.seen = append(d.seen, c.String())
	return c[0]
}

// checkPackWords packs words at width, compares the bytes with the
// per-stage packer, and reads them back the way the device does: wordAt
// per challenge, and readChallenges through a recording device.
func checkPackWords(t *testing.T, words []uint64, width int) {
	t.Helper()
	prefix := []byte{0xA5, 0x5A}
	got := packWords(append([]byte(nil), prefix...), words, width)
	want := refPackChallenges(append([]byte(nil), prefix...), words, width)
	if !bytes.Equal(got, want) {
		t.Fatalf("width %d count %d: packWords %x, per-stage packing %x", width, len(words), got, want)
	}
	packed := got[len(prefix):]
	mask := ^uint64(0) >> uint(64-width)
	for j, w := range words {
		if r := wordAt(packed, j*width, width); r != w&mask {
			t.Fatalf("width %d count %d: wordAt challenge %d = %#x, packed %#x", width, len(words), j, r, w&mask)
		}
	}
	dev := &recordingDevice{}
	m := &wire.Msg{Width: width, Count: len(words), Packed: packed}
	resp := readChallenges([]byte{0xFF}, make(challenge.Challenge, width), dev, silicon.Nominal, m)
	if len(resp) != 1+wire.PackedLen(len(words)) || resp[0] != 0xFF {
		t.Fatalf("width %d count %d: readChallenges appended %x", width, len(words), resp)
	}
	for j, w := range words {
		if s := challenge.FromWord(w, width).String(); dev.seen[j] != s {
			t.Fatalf("width %d count %d: device read challenge %d as %s, packed %s", width, len(words), j, dev.seen[j], s)
		}
		if wire.Bit(resp[1:], j) != uint8(w&1) {
			t.Fatalf("width %d count %d: response bit %d is not the device's answer", width, len(words), j)
		}
	}
}

func TestPackWordsMatchesPerStagePacking(t *testing.T) {
	src := rng.New(25)
	for width := 1; width <= 64; width++ {
		for count := 1; count <= 40; count++ {
			// Full 64-bit draws: bits above width must not reach the frame.
			words := make([]uint64, count)
			for i := range words {
				words[i] = src.Uint64()
			}
			checkPackWords(t, words, width)
		}
	}
}

// TestReadChallengesWideFrames covers frames wider than one word, which
// the codec accepts up to wire.MaxWidth: the device reads 64 stages per
// word.
func TestReadChallengesWideFrames(t *testing.T) {
	src := rng.New(26)
	for _, width := range []int{65, 100, 128, 129, 200} {
		const count = 7
		cs := challenge.RandomBatch(src, count, width)
		var bits []uint8
		for _, c := range cs {
			bits = append(bits, c...)
		}
		dev := &recordingDevice{}
		m := &wire.Msg{Width: width, Count: count, Packed: wire.PackBits(nil, bits)}
		readChallenges(nil, make(challenge.Challenge, width), dev, silicon.Nominal, m)
		for j, c := range cs {
			if dev.seen[j] != c.String() {
				t.Fatalf("width %d: device read challenge %d as %s, sent %s", width, j, dev.seen[j], c)
			}
		}
	}
}

// FuzzPackWords packs words taken from raw bytes at every width and
// checks the bytes against the per-stage packer and the device's unpack.
func FuzzPackWords(f *testing.F) {
	f.Add(uint8(0), []byte{1})
	f.Add(uint8(31), bytes.Repeat([]byte{0xFF}, 40))
	f.Add(uint8(63), []byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF, 0x10})
	f.Add(uint8(6), bytes.Repeat([]byte{0x5A, 0x00, 0xC3}, 50))
	f.Fuzz(func(t *testing.T, w uint8, raw []byte) {
		width := 1 + int(w)%64
		words := make([]uint64, 0, len(raw)/8+1)
		for len(raw) > 0 {
			var chunk [8]byte
			raw = raw[copy(chunk[:], raw):]
			words = append(words, binary.LittleEndian.Uint64(chunk[:]))
		}
		if len(words) == 0 || len(words) > 512 {
			return
		}
		checkPackWords(t, words, width)
	})
}
