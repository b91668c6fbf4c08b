package keyex

import (
	"errors"
	"testing"

	"xorpuf/internal/ecc"
	"xorpuf/internal/rng"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for _, cfg := range []Config{{M: 0, T: 1}, {M: 8, T: 0}, {M: 8, T: 200}, {M: 20, T: 3}} {
		err := cfg.Validate()
		var pe *ecc.ParamError
		if !errors.As(err, &pe) {
			t.Fatalf("Config%+v: want *ecc.ParamError, got %v", cfg, err)
		}
	}
	if n := DefaultConfig().N(); n != 255 {
		t.Fatalf("default code length %d, want 255", n)
	}
}

func TestGenerateReproduceRoundTrip(t *testing.T) {
	cfg := Config{M: 7, T: 6}
	src := rng.New(42)
	w := make([]uint8, cfg.N())
	for i := range w {
		w[i] = uint8(src.Uint64() & 1)
	}
	master, helper, err := Generate(cfg, src.Split("codeword"), w)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}

	// Exact reads reproduce with zero corrections.
	got, fixed, err := Reproduce(cfg, w, helper)
	if err != nil || fixed != 0 || got != master {
		t.Fatalf("clean reproduce: key match=%v fixed=%d err=%v", got == master, fixed, err)
	}

	// Up to T flips still reproduce.
	noisy := append([]uint8(nil), w...)
	for i := 0; i < cfg.T; i++ {
		noisy[i*7] ^= 1
	}
	got, fixed, err = Reproduce(cfg, noisy, helper)
	if err != nil || fixed != cfg.T || got != master {
		t.Fatalf("T-flip reproduce: key match=%v fixed=%d err=%v", got == master, fixed, err)
	}

	// Far beyond T the decode must not silently return the right key by
	// luck; it either errors or produces a different key (the handshake
	// MAC rejects the latter).
	for i := range noisy {
		noisy[i] = w[i] ^ uint8(i&1)
	}
	got, _, err = Reproduce(cfg, noisy, helper)
	if err == nil && got == master {
		t.Fatal("reproduce with ~half the bits flipped returned the enrollment key")
	}

	// Mis-sized inputs are rejected up front.
	if _, _, err := Reproduce(cfg, w[:10], helper); err == nil {
		t.Fatal("short response vector accepted")
	}
	if _, _, err := Generate(cfg, src, w[:10]); err == nil {
		t.Fatal("short enrollment vector accepted")
	}
}

func TestTranscriptBindsEveryField(t *testing.T) {
	const chipID, caps = "chip-7", uint64(1)
	offer := make([]byte, 40)
	for i := range offer {
		offer[i] = byte(i * 37)
	}
	h0 := Transcript(chipID, caps, offer)
	if Transcript(chipID, caps, append([]byte(nil), offer...)) != h0 {
		t.Fatal("transcript not deterministic")
	}
	// Flipping any bit of the offer frame must change the transcript.
	for i := range offer {
		for bit := 0; bit < 8; bit++ {
			o := append([]byte(nil), offer...)
			o[i] ^= 1 << bit
			if Transcript(chipID, caps, o) == h0 {
				t.Fatalf("flipping offer byte %d bit %d did not change the transcript", i, bit)
			}
		}
	}
	// Capability stripping (cipher downgrade) and any other caps bit must
	// change the transcript.
	for bit := 0; bit < 64; bit++ {
		if Transcript(chipID, caps^1<<bit, offer) == h0 {
			t.Fatalf("flipping caps bit %d did not change the transcript", bit)
		}
	}
	for _, o := range [][]byte{nil, offer[:len(offer)-1], append(append([]byte(nil), offer...), 0)} {
		if Transcript(chipID, caps, o) == h0 {
			t.Fatalf("offer of %d bytes hashes like the %d-byte offer", len(o), len(offer))
		}
	}
	for _, id := range []string{"chip-8", "", "chip-7\x00"} {
		if Transcript(id, caps, offer) == h0 {
			t.Fatalf("chip ID %q hashes like %q", id, chipID)
		}
	}
	// Field-boundary shift: the same concatenated bytes, split differently
	// between the chip ID and the offer.
	if Transcript("chip-", caps, offer) == Transcript("chip", caps, append([]byte("-"), offer...)) {
		t.Fatal("chip ID / offer boundary shift did not change the transcript")
	}
}

func TestKeyScheduleAndConfirm(t *testing.T) {
	var master, transcript [32]byte
	master[0], transcript[0] = 1, 2
	keys := DeriveSession(master, transcript)
	if keys.MAC == keys.C2S || keys.C2S == keys.S2C || keys.MAC == keys.S2C {
		t.Fatal("session keys not pairwise distinct")
	}
	var transcript2 [32]byte
	transcript2[0] = 3
	if DeriveSession(master, transcript2) == keys {
		t.Fatal("key schedule ignores the transcript")
	}

	dev := ConfirmMAC(keys, RoleDevice, transcript)
	srv := ConfirmMAC(keys, RoleServer, transcript)
	if dev == srv {
		t.Fatal("device and server confirmation MACs identical")
	}
	if !VerifyConfirm(keys, RoleDevice, transcript, dev[:]) {
		t.Fatal("valid device MAC rejected")
	}
	if VerifyConfirm(keys, RoleServer, transcript, dev[:]) {
		t.Fatal("device MAC accepted in the server role")
	}
	bad := dev
	bad[5] ^= 1
	if VerifyConfirm(keys, RoleDevice, transcript, bad[:]) {
		t.Fatal("corrupted MAC accepted")
	}
	if VerifyConfirm(keys, RoleDevice, transcript, dev[:10]) {
		t.Fatal("truncated MAC accepted")
	}
}

func TestZeroize(t *testing.T) {
	secret := []byte{1, 2, 3, 4}
	Zeroize(secret)
	for i, b := range secret {
		if b != 0 {
			t.Fatalf("byte %d not cleared", i)
		}
	}
}
