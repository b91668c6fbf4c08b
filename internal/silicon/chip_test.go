package silicon

import (
	"math"
	"testing"

	"xorpuf/internal/challenge"
	"xorpuf/internal/rng"
)

// evalXOR is the per-member reference read: the XOR of the first n PUFs'
// Eval, in member order, on the chip's noise stream.
func evalXOR(chip *Chip, n int, c challenge.Challenge, cond Condition) uint8 {
	var x uint8
	for i := 0; i < n; i++ {
		x ^= chip.PUF(i).Eval(chip.noise, c, cond)
	}
	return x
}

// checkRead compares one read of chip against the reference read of its
// twin: the same bit, and both noise streams at the same position after.
func checkRead(t *testing.T, what string, got uint8, chip *Chip, want uint8, twin *Chip) {
	t.Helper()
	if got != want {
		t.Fatalf("%s = %d, per-member Eval XOR = %d", what, got, want)
	}
	if *chip.noise != *twin.noise {
		t.Fatalf("%s left the noise stream at a different position than the per-member reads", what)
	}
}

// checkDelay4 compares the side-by-side sums of the chip's first four PUFs
// with each PUF's Delay, bit for bit.
func checkDelay4(t *testing.T, chip *Chip, c challenge.Challenge, cond Condition) {
	t.Helper()
	got := delay4(chip.pufs[:4], c, cond.VDD-Nominal.VDD, cond.TempC-Nominal.TempC)
	for i, d := range got {
		if want := chip.PUF(i).Delay(c, cond); math.Float64bits(d) != math.Float64bits(want) {
			t.Fatalf("k=%d %v: delay4 member %d = %v, Delay = %v", len(c), cond, i, d, want)
		}
	}
}

func TestReadXORMatchesEval(t *testing.T) {
	reads := 300
	if testing.Short() {
		reads = 40
	}
	conds := Corners() // the nine corners; Nominal is the middle one
	for _, k := range []int{1, 2, 31, 32, 33, 64} {
		params := DefaultParams()
		params.Stages = k
		for _, aged := range []bool{false, true} {
			for n := 1; n <= 12; n++ {
				seed := uint64(1000*k + n)
				chip, twin := NewChip(rng.New(seed), params, n), NewChip(rng.New(seed), params, n)
				if aged {
					chip.Age(rng.New(seed+1), 0.5)
					twin.Age(rng.New(seed+1), 0.5)
				}
				src := rng.New(seed + 2)
				for ci, cond := range conds {
					if aged && ci == len(conds)/2 {
						// Aging one member between reads must reach the
						// next read: the chip keeps no weights of its own.
						chip.PUF(n-1).Age(rng.New(seed+3), 0.3)
						twin.PUF(n-1).Age(rng.New(seed+3), 0.3)
					}
					for r := 0; r < reads; r++ {
						c := challenge.Random(src, k)
						if n >= 4 {
							checkDelay4(t, chip, c, cond)
						}
						checkRead(t, "ReadXOR", chip.ReadXOR(c, cond), chip, evalXOR(twin, n, c, cond), twin)
						m := 1 + r%n
						checkRead(t, "ReadXORSubset", chip.ReadXORSubset(m, c, cond), chip, evalXOR(twin, m, c, cond), twin)
					}
				}
			}
		}
	}
	// No noise and heavy noise: every draw then leaves the certificates to
	// the sign of Δ alone, or sends many of them to the exact path.
	for _, scale := range []float64{0, 10} {
		params := DefaultParams()
		params.NoiseSigma *= scale
		for n := 1; n <= 12; n++ {
			seed := uint64(100*n) + uint64(scale)
			chip, twin := NewChip(rng.New(seed), params, n), NewChip(rng.New(seed), params, n)
			src := rng.New(seed + 1)
			for _, cond := range conds {
				for r := 0; r < reads/4; r++ {
					c := challenge.Random(src, params.Stages)
					checkRead(t, "ReadXOR", chip.ReadXOR(c, cond), chip, evalXOR(twin, n, c, cond), twin)
				}
			}
		}
	}
}

// FuzzReadXOR checks ReadXOR against the per-member Eval reference for a
// fuzzed width, challenge word, in-envelope condition and chip seed.
func FuzzReadXOR(f *testing.F) {
	f.Add(uint8(4), uint64(0x0123456789abcdef), uint16(0), uint16(0), uint64(1))
	f.Add(uint8(10), ^uint64(0), uint16(65535), uint16(65535), uint64(2))
	f.Add(uint8(12), uint64(0), uint16(32768), uint16(27306), uint64(3))
	f.Fuzz(func(t *testing.T, width uint8, word uint64, volt, temp uint16, seed uint64) {
		n := 1 + int(width)%12
		cond := Condition{
			VDD:   min(MinVDD+(MaxVDD-MinVDD)*float64(volt)/65535, MaxVDD),
			TempC: min(MinTempC+(MaxTempC-MinTempC)*float64(temp)/65535, MaxTempC),
		}
		params := DefaultParams()
		chip, twin := NewChip(rng.New(seed), params, n), NewChip(rng.New(seed), params, n)
		c := challenge.FromWord(word, params.Stages)
		for r := 0; r < 8; r++ {
			checkRead(t, "ReadXOR", chip.ReadXOR(c, cond), chip, evalXOR(twin, n, c, cond), twin)
		}
	})
}

// BenchmarkChipReadXOR times one XOR read: n = 4 at Nominal, and n = 10
// moving to the next of the nine corners every 16 reads.
func BenchmarkChipReadXOR(b *testing.B) {
	corners := Corners()
	for _, bc := range []struct {
		name   string
		n      int
		rotate bool
	}{{"n4", 4, false}, {"n10", 10, true}} {
		b.Run(bc.name, func(b *testing.B) {
			params := DefaultParams()
			chip := NewChip(rng.New(1), params, bc.n)
			chip.BlowFuses()
			cs := challenge.RandomBatch(rng.New(2), 1024, params.Stages)
			cond := Nominal
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.rotate && i%16 == 0 {
					cond = corners[(i/16)%len(corners)]
				}
				_ = chip.ReadXOR(cs[i&1023], cond)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/read")
		})
	}
}
