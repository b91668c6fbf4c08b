package authproto

import (
	"testing"

	"xorpuf/internal/challenge"
	"xorpuf/internal/core"
	"xorpuf/internal/mlattack"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
	"xorpuf/internal/xorpuf"
)

// These integration tests pit the defense mechanisms against the actual
// modeling attacks, closing the loop the paper argues qualitatively.

func attackAccuracy(t *testing.T, train []xorpuf.CRP, chip *silicon.Chip, width int) float64 {
	t.Helper()
	// Score against clean stable CRPs (the attacker's goal is predicting
	// the true responses used in authentication).
	x := xorpuf.FromChip(chip, width)
	testCRPs, _ := x.StableCRPs(rng.New(777), 1500, silicon.Nominal, 0.999)
	trainSet := mlattack.DatasetFromCRPs(train)
	testSet := mlattack.DatasetFromCRPs(testCRPs)
	cfg := mlattack.DefaultMLPAttackConfig()
	cfg.Restarts = 1
	cfg.LBFGS.MaxIter = 100
	res := mlattack.RunMLPAttack(rng.New(778), trainSet, testSet, cfg)
	return res.TestAccuracy
}

func TestNoiseBifurcationDegradesAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("attack integration test skipped in -short mode")
	}
	// The same attacker with the same CRP budget must do measurably worse
	// against bifurcated traffic than against clean reads.
	const width, budget = 2, 6000
	chip := silicon.NewChip(rng.New(60), silicon.DefaultParams(), width)
	x := xorpuf.FromChip(chip, width)

	clean, _ := x.StableCRPs(rng.New(61), budget, silicon.Nominal, 0.999)
	accClean := attackAccuracy(t, clean, chip, width)

	nb := EnrollNoiseBifurcation(chip, rng.New(62), 10, 0.25, 0.10)
	tapped := nb.TapCRPs(chip, rng.New(63), budget, chip.Stages(), silicon.Nominal)
	accTapped := attackAccuracy(t, tapped, chip, width)

	if accClean < 0.9 {
		t.Fatalf("control attack should break a 2-XOR: %.3f", accClean)
	}
	if accTapped > accClean-0.05 {
		t.Errorf("bifurcation did not degrade the attack: clean %.3f vs tapped %.3f",
			accClean, accTapped)
	}
}

func TestLockdownStarvesAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("attack integration test skipped in -short mode")
	}
	// With a CRP budget two orders below what the attack needs, the model
	// must stay near chance.
	const width = 2
	chip := silicon.NewChip(rng.New(64), silicon.DefaultParams(), width)
	l := NewLockdown(chip)
	l.Authorize(150) // the verifier's own traffic allowance
	harvest := l.HarvestCRPs(rng.New(65), 10000, chip.Stages(), silicon.Nominal)
	if len(harvest) != 150 {
		t.Fatalf("harvested %d CRPs, want 150", len(harvest))
	}
	acc := attackAccuracy(t, harvest, chip, width)
	if acc > 0.80 {
		t.Errorf("attack under lockdown reached %.3f accuracy with 150 CRPs", acc)
	}
}

func TestModelAssistedSelectionDoesNotWeakenAttackResistance(t *testing.T) {
	if testing.Short() {
		t.Skip("attack integration test skipped in -short mode")
	}
	// Worry the paper addresses implicitly: the server only ever emits
	// *selected* (deep-margin) challenges — does training on exactly that
	// distribution help the attacker?  Check that an attacker observing
	// selected CRPs of a wide XOR PUF still sits near chance.
	const width = 8
	chip := silicon.NewChip(rng.New(66), silicon.DefaultParams(), width)
	cfg := enrollCfg()
	p, err := EnrollModelAssisted(chip, rng.New(67), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Eavesdrop 6000 authentication CRPs.
	cs, predicted, err := core.NewSelector(p.Model, rng.New(68)).Next(6000, 0)
	if err != nil {
		t.Fatal(err)
	}
	observed := make([]xorpuf.CRP, len(cs))
	for i := range cs {
		observed[i] = xorpuf.CRP{Challenge: challenge.FromWord(cs[i], p.Model.Stages()), Response: predicted[i]}
	}
	acc := attackAccuracy(t, observed, chip, width)
	if acc > 0.70 {
		t.Errorf("attacker on selected CRPs of 8-XOR reached %.3f", acc)
	}
}

func TestSelectedChallengesNotLowEntropy(t *testing.T) {
	// Selected challenges must not collapse onto a small or strongly
	// biased subset of the challenge space (that would itself be an
	// attack surface): per-bit bias stays near 1/2 and no duplicates in a
	// modest sample.
	chip := silicon.NewChip(rng.New(69), silicon.DefaultParams(), 4)
	p, err := EnrollModelAssisted(chip, rng.New(70), enrollCfg())
	if err != nil {
		t.Fatal(err)
	}
	cs, _, err := core.NewSelector(p.Model, rng.New(71)).Next(4000, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	ones := make([]int, chip.Stages())
	for _, w := range cs {
		c := challenge.FromWord(w, chip.Stages())
		if seen[w] {
			t.Fatal("duplicate selected challenge in a 4000 sample")
		}
		seen[w] = true
		for j, b := range c {
			ones[j] += int(b)
		}
	}
	for j, o := range ones {
		frac := float64(o) / float64(len(cs))
		if frac < 0.40 || frac > 0.60 {
			t.Errorf("selected-challenge bit %d biased: %.3f", j, frac)
		}
	}
}
