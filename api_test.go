package xorpuf_test

// End-to-end tests of the public facade, written the way a downstream user
// of the library would write them: no internal/ imports.

import (
	"math"
	"testing"

	"xorpuf"
)

func TestPublicAPIFullLifecycle(t *testing.T) {
	params := xorpuf.DefaultParams()
	if params.Stages != 32 || params.CounterDepth != 100000 {
		t.Fatalf("unexpected default params: %+v", params)
	}
	chip := xorpuf.NewChip(1, params, 4)
	if chip.NumPUFs() != 4 || chip.Stages() != 32 {
		t.Fatalf("chip shape %d/%d", chip.NumPUFs(), chip.Stages())
	}

	cfg := xorpuf.DefaultEnrollConfig()
	cfg.TrainingSize = 2000
	cfg.ValidationSize = 5000
	cfg.BlowFuses = true
	enr, err := xorpuf.Enroll(chip, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if enr.Model.Width() != 4 {
		t.Fatalf("model width %d", enr.Model.Width())
	}
	if enr.Model.Beta0 > 1 || enr.Model.Beta1 < 1 {
		t.Fatalf("betas (%v, %v)", enr.Model.Beta0, enr.Model.Beta1)
	}

	// Serialization round trip.
	blob, err := xorpuf.EncodeChipModel(enr.Model)
	if err != nil {
		t.Fatal(err)
	}
	model, err := xorpuf.DecodeChipModel(blob)
	if err != nil {
		t.Fatal(err)
	}

	// Authentication: genuine approved, impostor denied.
	res, err := xorpuf.Authenticate(model, chip, 3, 60, xorpuf.Nominal)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approved || res.Mismatches != 0 {
		t.Fatalf("genuine: %+v", res)
	}
	impostor := xorpuf.NewChip(999, params, 4)
	res, err = xorpuf.Authenticate(model, impostor, 4, 60, xorpuf.Nominal)
	if err != nil {
		t.Fatal(err)
	}
	if res.Approved {
		t.Fatal("impostor approved via public API")
	}
	// An approve over zero challenges would approve any device.
	for _, count := range []int{0, -1} {
		if res, err := xorpuf.Authenticate(model, impostor, 5, count, xorpuf.Nominal); err == nil {
			t.Fatalf("count %d: %+v, want an error", count, res)
		}
	}
}

func TestPublicAPIXORAndCRPs(t *testing.T) {
	chip := xorpuf.NewChip(5, xorpuf.DefaultParams(), 6)
	x := xorpuf.NewXORPUF(chip, 6)
	if x.Width() != 6 {
		t.Fatalf("width %d", x.Width())
	}
	crps, examined := x.StableCRPs(xorpuf.NewSource(6), 100, xorpuf.Nominal, 0.999)
	if len(crps) != 100 || examined < 100 {
		t.Fatalf("CRPs %d examined %d", len(crps), examined)
	}
	yield := float64(len(crps)) / float64(examined)
	if want := math.Pow(0.8, 6); yield < want/2 || yield > want*2 {
		t.Errorf("yield %.3f, want ≈%.3f", yield, want)
	}
}

func TestPublicAPIAttacks(t *testing.T) {
	if testing.Short() {
		t.Skip("attack test skipped in -short mode")
	}
	chip := xorpuf.NewChip(7, xorpuf.DefaultParams(), 1)
	x := xorpuf.NewXORPUF(chip, 1)
	crps, _ := x.StableCRPs(xorpuf.NewSource(8), 4000, xorpuf.Nominal, 0.999)
	train := xorpuf.DatasetFromCRPs(crps[:3000])
	test := xorpuf.DatasetFromCRPs(crps[3000:])
	lr := xorpuf.RunLogisticAttack(train, test, 1e-4)
	if lr.TestAccuracy < 0.97 {
		t.Errorf("logistic attack via facade: %.3f", lr.TestAccuracy)
	}
	cfg := xorpuf.DefaultMLPAttackConfig()
	cfg.Restarts = 1
	cfg.LBFGS.MaxIter = 60
	mlp := xorpuf.RunMLPAttack(9, train, test, cfg)
	if mlp.TestAccuracy < 0.95 {
		t.Errorf("MLP attack via facade: %.3f", mlp.TestAccuracy)
	}
}

func TestPublicAPIKeyGeneration(t *testing.T) {
	chip := xorpuf.NewChip(10, xorpuf.DefaultParams(), 4)
	cfg := xorpuf.DefaultEnrollConfig()
	cfg.TrainingSize = 2000
	cfg.ValidationSize = 5000
	enr, err := xorpuf.Enroll(chip, 11, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kcfg := xorpuf.KeyConfig{M: 7, T: 6, Selector: xorpuf.NewKeySelector(enr.Model, 12)}
	kEnr, enrolledKey, err := xorpuf.EnrollKey(chip, 13, xorpuf.Nominal, kcfg)
	if err != nil {
		t.Fatal(err)
	}
	key, fixed, err := xorpuf.ReproduceKey(chip, kEnr, xorpuf.Nominal, xorpuf.KeyConfig{M: 7, T: 6})
	if err != nil {
		t.Fatal(err)
	}
	if key != enrolledKey {
		t.Fatal("key did not reproduce via facade")
	}
	if fixed > 1 {
		t.Errorf("needed %d corrections on selected challenges", fixed)
	}
}

func TestPublicAPIFeedForward(t *testing.T) {
	ff := xorpuf.NewFeedForwardPUF(14, xorpuf.DefaultParams(), []xorpuf.FeedForwardLoop{
		{Tap: 3, Target: 20},
	})
	if ff.Stages() != 32 {
		t.Fatalf("stages %d", ff.Stages())
	}
	c := xorpuf.RandomChallenges(15, 1, 32)[0]
	_ = ff.NoiselessResponse(c, xorpuf.Nominal)
}

func TestPublicAPIFusesAndConditions(t *testing.T) {
	chip := xorpuf.NewChip(16, xorpuf.DefaultParams(), 2)
	c := xorpuf.RandomChallenges(17, 1, 32)[0]
	if _, err := chip.SoftResponse(0, c, xorpuf.Nominal); err != nil {
		t.Fatal(err)
	}
	chip.BlowFuses()
	if _, err := chip.SoftResponse(0, c, xorpuf.Nominal); err != xorpuf.ErrFusesBlown {
		t.Fatalf("err = %v, want ErrFusesBlown", err)
	}
	if len(xorpuf.Corners()) != 9 {
		t.Fatal("Corners() should return 9 conditions")
	}
	phi := xorpuf.Features(c)
	if len(phi) != 33 || phi[32] != 1 {
		t.Fatalf("Features shape/constant wrong: len=%d last=%v", len(phi), phi[32])
	}
}

func TestPublicAPILot(t *testing.T) {
	lot := xorpuf.FabricateLot(18, xorpuf.DefaultParams(), 3, 2)
	if len(lot) != 3 {
		t.Fatalf("lot size %d", len(lot))
	}
	c := xorpuf.RandomChallenges(19, 1, 32)[0]
	// Distinct chips must not all agree on a random challenge's delay sign
	// with certainty — check they are distinct objects with distinct
	// weights at least.
	w0 := lot[0].PUF(0).Weights(xorpuf.Nominal)
	w1 := lot[1].PUF(0).Weights(xorpuf.Nominal)
	same := true
	for i := range w0 {
		if w0[i] != w1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("lot chips share weights")
	}
	_ = lot[2].ReadXOR(c, xorpuf.Nominal)
}
