package silicon

import (
	"math"
	"testing"

	"xorpuf/internal/challenge"
	"xorpuf/internal/rng"
)

func testFFPUF(seed uint64) *FeedForwardPUF {
	return NewFeedForwardPUF(rng.New(seed), DefaultParams(), []FeedForwardLoop{
		{Tap: 7, Target: 15},
		{Tap: 15, Target: 27},
	})
}

func TestFeedForwardLoopValidation(t *testing.T) {
	params := DefaultParams()
	cases := [][]FeedForwardLoop{
		{{Tap: 5, Target: 5}},                      // tap == target
		{{Tap: 10, Target: 3}},                     // tap after target
		{{Tap: 0, Target: 32}},                     // target out of range
		{{Tap: -1, Target: 5}},                     // negative tap
		{{Tap: 1, Target: 9}, {Tap: 3, Target: 9}}, // duplicate target
	}
	for i, loops := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic for loops %+v", i, loops)
				}
			}()
			NewFeedForwardPUF(rng.New(1), params, loops)
		}()
	}
}

func TestFeedForwardNoLoopsMatchesLinear(t *testing.T) {
	// With zero loops the structural evaluation must agree in sign with a
	// plain arbiter PUF fabricated from the same stream.
	src1 := rng.New(42)
	ff := NewFeedForwardPUF(src1, DefaultParams(), nil)
	src2 := rng.New(42)
	base := NewArbiterPUF(src2.Split("base"), DefaultParams())
	cs := rng.New(43)
	for i := 0; i < 500; i++ {
		c := challenge.Random(cs, ff.Stages())
		want := base.Delay(c, Nominal)
		got := ff.delay(c, Nominal, nil)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("no-loop FF delay %v != base delay %v", got, want)
		}
	}
}

func TestFeedForwardOverridesChallengeBit(t *testing.T) {
	// Flipping the challenge bit at a feed-forward target stage must not
	// change the response (the tap drives that stage's select).
	p := testFFPUF(1)
	cs := rng.New(2)
	for i := 0; i < 300; i++ {
		c := challenge.Random(cs, p.Stages())
		c2 := c.Clone()
		c2[15] ^= 1 // target of loop 0
		a := p.delay(c, Nominal, nil)
		b := p.delay(c2, Nominal, nil)
		if a != b {
			t.Fatalf("target-stage challenge bit changed the delay: %v vs %v", a, b)
		}
	}
}

func TestFeedForwardTapActuallyFeedsForward(t *testing.T) {
	// The tap decision must matter: across random challenges, the delays
	// of a feed-forward PUF and its underlying linear PUF (same stages,
	// same challenge) must differ whenever the tap decision differs from
	// the challenge bit it replaces.
	p := testFFPUF(3)
	cs := rng.New(4)
	differ := 0
	for i := 0; i < 500; i++ {
		c := challenge.Random(cs, p.Stages())
		lin := p.base.Delay(c, Nominal)
		ff := p.delay(c, Nominal, nil)
		if lin != ff {
			differ++
		}
	}
	// Roughly half the challenges should resolve a tap differently from
	// the challenge bit it overrides.
	if differ < 100 {
		t.Errorf("feed-forward made a difference on only %d/500 challenges", differ)
	}
}

func TestFeedForwardUniformity(t *testing.T) {
	// Feed-forward PUFs are known to have worse per-instance uniformity
	// than plain arbiter PUFs (the tap decision correlates with the final
	// race), so check the mean over a small lot rather than one instance.
	seedStream := rng.New(5)
	var ones, total int
	const instances, n = 6, 6000
	for k := 0; k < instances; k++ {
		p := NewFeedForwardPUF(seedStream.Fork("ff", k), DefaultParams(), []FeedForwardLoop{
			{Tap: 7, Target: 15},
			{Tap: 15, Target: 27},
		})
		cs := seedStream.Fork("cs", k)
		for i := 0; i < n; i++ {
			c := challenge.Random(cs, p.Stages())
			ones += int(p.NoiselessResponse(c, Nominal))
			total++
		}
	}
	frac := float64(ones) / float64(total)
	// Feed-forward responses are systematically non-uniform (the tapped
	// race outcome correlates with the final race — cf. Lao & Parhi's
	// statistical analysis of MUX-based PUFs), so only bound the bias.
	if math.Abs(frac-0.5) > 0.15 {
		t.Errorf("mean uniformity %.3f, want within 0.35–0.65", frac)
	}
}

func TestFeedForwardEvalMatchesSoft(t *testing.T) {
	p := testFFPUF(7)
	cs := rng.New(8)
	meas := rng.New(9)
	// Find a challenge with a non-saturated response probability.
	var c challenge.Challenge
	for {
		c = challenge.Random(cs, p.Stages())
		if q := p.ResponseProbabilityNoiselessTaps(c, Nominal); q > 0.3 && q < 0.7 {
			break
		}
	}
	soft := p.MeasureSoft(meas, c, Nominal, 4000)
	if soft == 0 || soft == 1 {
		t.Errorf("marginal challenge measured fully stable: soft=%v", soft)
	}
}

func TestFeedForwardStableChallengesExist(t *testing.T) {
	p := testFFPUF(10)
	cs := rng.New(11)
	meas := rng.New(12)
	stable := 0
	const n = 300
	for i := 0; i < n; i++ {
		c := challenge.Random(cs, p.Stages())
		soft := p.MeasureSoft(meas, c, Nominal, 500)
		if soft == 0 || soft == 1 {
			stable++
		}
	}
	// The bulk of challenges should still be stable over a 500-deep window.
	if stable < n/2 {
		t.Errorf("only %d/%d challenges stable", stable, n)
	}
}
