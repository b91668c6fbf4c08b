package fleet_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"xorpuf/internal/core"
	"xorpuf/internal/health"
	"xorpuf/internal/registry"
	"xorpuf/internal/registry/fleet"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
)

const reenrollFleetSeed = 77

// agedChip refabricates fleet chip i and applies the same heavy aging drift —
// the deterministic stand-in for "the fielded device, as it exists today".
func agedChip(i int) *silicon.Chip {
	chip := fleet.Chip(reenrollFleetSeed, i, silicon.DefaultParams(), 2)
	chip.Age(rng.New(9000).SplitIndex(i), 0.5)
	return chip
}

// enrollOne builds a registry holding exactly fleet chip 0.
func enrollOne(t *testing.T) *registry.Registry {
	t.Helper()
	reg, err := registry.Open("", registry.Options{Seed: 60})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	if rep, err := fleet.Run(testFleetConfig(1, 1), reg); err != nil || rep.Enrolled != 1 {
		t.Fatalf("fleet.Run: %+v, %v", rep, err)
	}
	return reg
}

// TestReEnrollRepairsAgedChip is the pipeline's acceptance test: a chip that
// aged out of its enrollment is re-measured, refit, and swapped back in —
// after which the aged silicon authenticates at zero HD again while the
// burned challenge history stays burned.
func TestReEnrollRepairsAgedChip(t *testing.T) {
	reg := enrollOne(t)
	e := reg.Lookup("chip-0")
	oldModel := e.Model()
	aged := agedChip(0)

	// The drift is real: the aged device no longer matches its factory
	// enrollment.
	res, err := core.Authenticate(oldModel, aged, rng.New(1), 25, silicon.Nominal)
	if err != nil {
		t.Fatal(err)
	}
	if res.Approved {
		t.Skip("aging drift too mild to distinguish models; tighten DriftSigma")
	}
	if _, ok := e.ForceHealth(health.Quarantined); !ok {
		t.Fatal("force-quarantine reported no transition")
	}

	re, err := fleet.NewReEnroller(reg, fleet.ReEnrollConfig{
		Seed:   7,
		Enroll: fastEnroll(),
		Chip: func(id string) (*silicon.Chip, error) {
			if id != "chip-0" {
				t.Errorf("provider asked for %q", id)
			}
			return agedChip(0), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.ReEnroll("chip-0"); err != nil {
		t.Fatalf("ReEnroll: %v", err)
	}
	if got := e.HealthState(); got != health.Healthy {
		t.Errorf("post-re-enroll health %v, want healthy", got)
	}
	if modelsEqual(e.Model(), oldModel) {
		t.Error("re-enrollment kept the stale model")
	}
	// The refit model fits the aged silicon: zero HD.
	res, err = core.Authenticate(e.Model(), aged, rng.New(2), 25, silicon.Nominal)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approved || res.Mismatches != 0 {
		t.Errorf("aged device vs refit model: %+v, want zero-HD approval", res)
	}
}

// TestHandleTriggersOnceAndRespectsThreshold: Handle wired as a health
// handler re-enrolls asynchronously, deduplicates overlapping triggers, and
// ignores events short of quarantine.
func TestHandleTriggersOnceAndRespectsThreshold(t *testing.T) {
	reg := enrollOne(t)
	reg.Lookup("chip-0").ForceHealth(health.Quarantined) //nolint:errcheck

	var providerCalls, results atomic.Int32
	var block sync.WaitGroup
	block.Add(1)
	re, err := fleet.NewReEnroller(reg, fleet.ReEnrollConfig{
		Seed:   8,
		Enroll: fastEnroll(),
		Chip: func(id string) (*silicon.Chip, error) {
			providerCalls.Add(1)
			block.Wait() // hold the first repair in flight
			return agedChip(0), nil
		},
		OnResult: func(id string, err error) {
			if err != nil {
				t.Errorf("OnResult(%s): %v", id, err)
			}
			results.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := health.Event{ChipID: "chip-0", From: health.Degraded, To: health.Quarantined}
	re.Handle(ev)
	re.Handle(ev) // duplicate while the first is still measuring
	re.Handle(health.Event{ChipID: "chip-0", From: health.Healthy, To: health.Degraded})
	block.Done()
	re.Wait()
	if got := providerCalls.Load(); got != 1 {
		t.Errorf("provider called %d times, want 1 (dedup + threshold)", got)
	}
	if got := results.Load(); got != 1 {
		t.Errorf("OnResult called %d times, want 1", got)
	}
	if got := reg.Lookup("chip-0").HealthState(); got != health.Healthy {
		t.Errorf("post-handle health %v, want healthy", got)
	}
}

func TestReEnrollErrors(t *testing.T) {
	reg := enrollOne(t)
	if _, err := fleet.NewReEnroller(reg, fleet.ReEnrollConfig{}); err == nil {
		t.Error("nil chip provider accepted")
	}
	if _, err := fleet.NewReEnroller(nil, fleet.ReEnrollConfig{Chip: func(string) (*silicon.Chip, error) { return nil, nil }}); err == nil {
		t.Error("nil registry accepted")
	}

	re, err := fleet.NewReEnroller(reg, fleet.ReEnrollConfig{
		Seed:   9,
		Enroll: fastEnroll(),
		Chip: func(id string) (*silicon.Chip, error) {
			switch id {
			case "chip-0":
				c := agedChip(0)
				c.BlowFuses()
				return c, nil
			default:
				return nil, errors.New("device unreachable")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.ReEnroll("ghost"); err == nil {
		t.Error("re-enrolled an unregistered chip")
	}
	// Blown fuses: soft responses are gone, the repair must refuse rather
	// than fit a model to hard readouts.
	if err := re.ReEnroll("chip-0"); err == nil {
		t.Error("re-enrolled a chip with blown fuses")
	}
	if got := reg.Lookup("chip-0").HealthState(); got != health.Healthy {
		t.Errorf("failed re-enroll disturbed health: %v", got)
	}
	re.Close()
	if err := re.ReEnroll("chip-0"); err == nil {
		t.Error("closed re-enroller accepted work")
	}
}
