package silicon

import (
	"math"
	"reflect"
	"testing"

	"xorpuf/internal/challenge"
	"xorpuf/internal/rng"
)

func TestStressProfileDeterministicAndInEnvelope(t *testing.T) {
	cfg := DefaultStressConfig()
	p1, err := NewStressProfile(rng.New(7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewStressProfile(rng.New(7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Steps) != len(p2.Steps) {
		t.Fatalf("step counts differ: %d vs %d", len(p1.Steps), len(p2.Steps))
	}
	for i := range p1.Steps {
		if p1.Steps[i] != p2.Steps[i] {
			t.Fatalf("step %d differs: %+v vs %+v", i, p1.Steps[i], p2.Steps[i])
		}
		if err := p1.Steps[i].Cond.Validate(); err != nil {
			t.Fatalf("step %d condition outside envelope: %v", i, err)
		}
	}
	if p1.Epochs() != cfg.Epochs {
		t.Fatalf("Epochs() = %d, want %d", p1.Epochs(), cfg.Epochs)
	}
	// The schedule must actually contain every stressor kind.
	seen := map[StressKind]int{}
	for _, s := range p1.Steps {
		seen[s.Kind]++
	}
	for _, k := range []StressKind{StressNominal, StressDroop, StressRamp, StressAging} {
		if seen[k] == 0 {
			t.Errorf("profile contains no %v steps", k)
		}
	}
	if got := seen[StressAging]; got != cfg.Epochs {
		t.Errorf("%d aging steps, want one per epoch (%d)", got, cfg.Epochs)
	}
}

func TestStressProfileRejectsBadConfig(t *testing.T) {
	if _, err := NewStressProfile(rng.New(1), StressConfig{Epochs: 0}); err == nil {
		t.Error("Epochs=0 accepted")
	}
	if _, err := NewStressProfile(rng.New(1), StressConfig{Epochs: 1, DriftSigma: -1}); err == nil {
		t.Error("negative DriftSigma accepted")
	}
}

func TestStressReplayReproducesAgedSilicon(t *testing.T) {
	params := DefaultParams()
	cfg := StressConfig{Epochs: 3, DriftSigma: 0.2}
	profile, err := NewStressProfile(rng.New(11), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Live through the whole deployment step by step...
	lived := NewChip(rng.New(12), params, 4)
	for i := range profile.Steps {
		profile.ApplyStep(lived, 13, i)
	}
	// ...then replay the same steps onto a re-fabricated twin.
	twin := NewChip(rng.New(12), params, 4)
	profile.Replay(twin, 13, len(profile.Steps))

	src := rng.New(14)
	for i := 0; i < 200; i++ {
		c := challenge.Random(src, params.Stages)
		for p := 0; p < 4; p++ {
			a := lived.PUF(p).Delay(c, Nominal)
			b := twin.PUF(p).Delay(c, Nominal)
			if a != b {
				t.Fatalf("replayed silicon diverges: PUF %d challenge %d: %v vs %v", p, i, a, b)
			}
		}
	}
	if want := math.Sqrt(3) * 0.2; math.Abs(profile.CumulativeDrift(len(profile.Steps)-1)-want) > 1e-12 {
		t.Errorf("CumulativeDrift = %v, want %v", profile.CumulativeDrift(len(profile.Steps)-1), want)
	}
}

func TestStressAgingActuallyDriftsChip(t *testing.T) {
	params := DefaultParams()
	profile, err := NewStressProfile(rng.New(21), StressConfig{Epochs: 2, DriftSigma: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	chip := NewChip(rng.New(22), params, 2)
	c := challenge.Random(rng.New(23), params.Stages)
	before := chip.PUF(0).Delay(c, Nominal)
	profile.Replay(chip, 24, len(profile.Steps))
	if chip.PUF(0).Delay(c, Nominal) == before {
		t.Error("stress profile with aging epochs left the silicon unchanged")
	}
}

func TestConditionValidate(t *testing.T) {
	cases := []struct {
		cond Condition
		ok   bool
	}{
		{Nominal, true},
		{Condition{VDD: 0.8, TempC: 0}, true},
		{Condition{VDD: 1.0, TempC: 60}, true},
		{Condition{VDD: 0.79, TempC: 25}, false},
		{Condition{VDD: 1.01, TempC: 25}, false},
		{Condition{VDD: 0.9, TempC: -5}, false},
		{Condition{VDD: 0.9, TempC: 61}, false},
		{Condition{VDD: math.NaN(), TempC: 25}, false},
		{Condition{VDD: 0.9, TempC: math.Inf(1)}, false},
	}
	for _, tc := range cases {
		err := tc.cond.Validate()
		if tc.ok && err != nil {
			t.Errorf("%v: unexpected error %v", tc.cond, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%v: expected rejection", tc.cond)
		}
	}
	for _, corner := range Corners() {
		if err := corner.Validate(); err != nil {
			t.Errorf("paper corner %v rejected: %v", corner, err)
		}
	}
}

func TestChipEntryPointsRejectOutOfEnvelopeConditions(t *testing.T) {
	chip := NewChip(rng.New(31), DefaultParams(), 2)
	c := challenge.Random(rng.New(32), chip.Stages())
	bad := Condition{VDD: 0.5, TempC: 25}

	if _, err := chip.ReadIndividual(0, c, bad); err == nil {
		t.Error("ReadIndividual accepted out-of-envelope condition")
	}
	if _, err := chip.SoftResponse(0, c, bad); err == nil {
		t.Error("SoftResponse accepted out-of-envelope condition")
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted out-of-envelope condition", name)
			}
		}()
		fn()
	}
	mustPanic("ReadXOR", func() { chip.ReadXOR(c, bad) })
	mustPanic("ReadXORSubset", func() { chip.ReadXORSubset(1, c, bad) })
}

func TestValidatorsRejectNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		// Every float field of Params, found by reflection so a new field
		// cannot slip past the check.
		typ := reflect.TypeOf(Params{})
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).Type.Kind() != reflect.Float64 {
				continue
			}
			p := DefaultParams()
			reflect.ValueOf(&p).Elem().Field(i).SetFloat(bad)
			if p.Validate() == nil {
				t.Errorf("Params.Validate accepted %s = %g", typ.Field(i).Name, bad)
			}
		}
		cfg := DefaultStressConfig()
		cfg.DriftSigma = bad
		if cfg.Validate() == nil {
			t.Errorf("StressConfig.Validate accepted DriftSigma = %g", bad)
		}
		puf := newTestPUF(40)
		before := puf.Weights(Nominal)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Age accepted drift %g", bad)
				}
			}()
			puf.Age(rng.New(41), bad)
		}()
		for i, w := range puf.Weights(Nominal) {
			if math.Float64bits(w) != math.Float64bits(before[i]) {
				t.Fatalf("Age(%g) changed weight %d before panicking", bad, i)
			}
		}
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params rejected: %v", err)
	}
	zero := DefaultParams()
	zero.NoiseSigma = 0
	if err := zero.Validate(); err != nil {
		t.Errorf("NoiseSigma 0 rejected: %v", err)
	}
}
