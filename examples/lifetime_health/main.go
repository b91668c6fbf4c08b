// Lifetime reliability walkthrough: a chip ages out of its enrolled model,
// the server's drift detectors catch it and quarantine it (a structured
// denial that burns no challenges — the zero-HD acceptance criterion is
// never loosened), and the automatic re-enrollment pipeline re-measures the
// aged silicon, refits the model, and swaps the registry entry so the same
// physical chip authenticates at zero HD again.  The old challenge history
// stays burned across the swap.
//
//	go run ./examples/lifetime_health
package main

import (
	"fmt"
	"log"

	"xorpuf/internal/challenge"
	"xorpuf/internal/core"
	"xorpuf/internal/health"
	"xorpuf/internal/registry"
	"xorpuf/internal/registry/fleet"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
)

const (
	fleetSeed = 7
	xorWidth  = 2
	perAuth   = 25
)

func enrollConfig() core.EnrollConfig {
	cfg := core.DefaultEnrollConfig()
	cfg.TrainingSize = 400
	cfg.ValidationSize = 1500
	return cfg
}

func authenticate(e *registry.Entry, dev core.Device) (approved bool, mismatches int) {
	cs, predicted, err := e.Issue(perAuth, 0)
	if err != nil {
		log.Fatal(err)
	}
	k := e.Model().Stages()
	for i, w := range cs {
		if dev.ReadXOR(challenge.FromWord(w, k), silicon.Nominal) != predicted[i] {
			mismatches++
		}
	}
	approved = mismatches == 0 // the paper's zero-HD criterion — never loosened
	e.RecordAuth(health.Outcome{Approved: approved, Mismatches: mismatches, Challenges: len(cs)})
	return approved, mismatches
}

func main() {
	reg, err := registry.Open("", registry.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer reg.Close()

	// Factory: fabricate and enroll one chip.
	if _, err := fleet.Run(fleet.Config{
		Chips: 1, XORWidth: xorWidth, Seed: fleetSeed, Enroll: enrollConfig(),
	}, reg); err != nil {
		log.Fatal(err)
	}
	e := reg.Lookup("chip-0")
	device := fleet.Chip(fleetSeed, 0, silicon.DefaultParams(), xorWidth)

	ok, mm := authenticate(e, device)
	fmt.Printf("factory-fresh:   approved=%v (%d/%d mismatches), health=%v\n",
		ok, mm, perAuth, e.HealthState())

	// Years in the field: a deterministic stress profile drives the chip
	// through voltage droops, temperature ramps, and heavy cumulative aging.
	profile, err := silicon.NewStressProfile(rng.New(99), silicon.StressConfig{
		Epochs: 2, DriftSigma: 1.8, DroopsPerEpoch: 1, RampsPerEpoch: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	const agingSeed = 4242
	profile.Replay(device, agingSeed, len(profile.Steps))
	fmt.Printf("aged %d epochs:  cumulative drift %.2f·σ_process\n",
		profile.Epochs(), profile.CumulativeDrift(len(profile.Steps)-1))

	// The detectors watch every session: sustained mismatches walk the chip
	// through degraded into (sticky) quarantine.
	for e.HealthState() != health.Quarantined {
		ok, mm = authenticate(e, device)
		fmt.Printf("field session:   approved=%v (%d/%d mismatches), health=%v\n",
			ok, mm, perAuth, e.HealthState())
	}
	burned := e.Status().Issued
	fmt.Printf("quarantined after %d sessions; %d challenges burned so far\n",
		e.Status().HealthStats.Sessions, burned)

	// Repair: the re-enrollment pipeline re-measures the aged silicon's soft
	// responses, refits the model, re-pools β0/β1, and atomically swaps the
	// registry entry.  The provider re-derives the fielded device by
	// replaying its stress history onto refabricated silicon.
	repair, err := fleet.NewReEnroller(reg, fleet.ReEnrollConfig{
		Seed: 2001, Enroll: enrollConfig(),
		Chip: func(id string) (*silicon.Chip, error) {
			c := fleet.Chip(fleetSeed, 0, silicon.DefaultParams(), xorWidth)
			profile.Replay(c, agingSeed, len(profile.Steps))
			return c, nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := repair.ReEnroll("chip-0"); err != nil {
		log.Fatal(err)
	}
	st := e.Status()
	fmt.Printf("re-enrolled:     health=%v, issued history preserved (%d ≥ %d burned)\n",
		st.Health, st.Issued, burned)

	ok, mm = authenticate(e, device)
	fmt.Printf("same aged chip:  approved=%v (%d/%d mismatches) — zero HD again\n",
		ok, mm, perAuth)
}
