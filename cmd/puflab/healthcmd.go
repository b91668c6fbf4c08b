// health: the operator's view of the lifetime-reliability loop.  Inspect
// the drift detectors of every chip in a persistent registry, force a
// suspect chip into quarantine, or re-enroll a drifted chip in place —
// re-measuring the (simulated) silicon, refitting its model, and swapping
// the registry entry while keeping its issued-challenge history burned.
//
//	puflab health report     -state DIR
//	puflab health quarantine -state DIR -chip chip-3
//	puflab health reenroll   -state DIR -chip chip-3 [-seed -xor -train -validate -budget]
//
// The registry directory and -seed must match the `serve` instance that owns
// it; reenroll refabricates the device from the fleet seed, exactly as
// `serve` enrolled it.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"xorpuf/internal/core"
	"xorpuf/internal/health"
	"xorpuf/internal/registry"
	"xorpuf/internal/registry/fleet"
	"xorpuf/internal/silicon"
)

func runHealth(args []string) {
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		healthUsage()
		os.Exit(2)
	}
	sub := args[0]
	fs := flag.NewFlagSet("health "+sub, flag.ExitOnError)
	state := fs.String("state", "", "registry state directory (required)")
	seed := fs.Uint64("seed", 1, "simulation seed (must match the serve side)")
	chip := fs.String("chip", "", "chip ID to operate on")
	xorWidth := fs.Int("xor", 6, "reenroll: XOR width of the refabricated chip")
	train := fs.Int("train", 0, "reenroll: training-set size per PUF (0 = paper default)")
	validate := fs.Int("validate", 0, "reenroll: validation-set size (0 = paper default)")
	budget := fs.Int("budget", 0, "reenroll: lifetime challenge budget for the new enrollment (0 = unlimited)")
	if err := fs.Parse(args[1:]); err != nil {
		os.Exit(2)
	}
	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "puflab health: "+format+"\n", args...)
		os.Exit(1)
	}
	if *state == "" {
		fail("-state is required: health state lives in a persistent registry")
	}
	reg, err := registry.Open(*state, registry.Options{Seed: *seed + 1})
	if err != nil {
		fail("opening registry: %v", err)
	}
	defer reg.Close()

	needChip := func() *registry.Entry {
		if *chip == "" {
			fail("%s needs -chip", sub)
		}
		e := reg.Lookup(*chip)
		if e == nil {
			fail("chip %q is not registered", *chip)
		}
		return e
	}

	switch sub {
	case "report":
		healthReport(reg)
	case "quarantine":
		e := needChip()
		if ev, ok := e.ForceHealth(health.Quarantined); ok {
			fmt.Printf("%s: %v → %v (%s)\n", *chip, ev.From, ev.To, ev.Cause)
		} else {
			fmt.Printf("%s: already quarantined\n", *chip)
		}
	case "reenroll":
		needChip()
		enrollCfg := core.DefaultEnrollConfig()
		if *train > 0 {
			enrollCfg.TrainingSize = *train
		}
		if *validate > 0 {
			enrollCfg.ValidationSize = *validate
		}
		re, err := fleet.NewReEnroller(reg, fleet.ReEnrollConfig{
			Seed:   *seed,
			Enroll: enrollCfg,
			Budget: *budget,
			Chip:   fleet.Provider(*seed, silicon.DefaultParams(), *xorWidth),
		})
		if err != nil {
			fail("%v", err)
		}
		if err := re.ReEnroll(*chip); err != nil {
			fail("%v", err)
		}
		st := reg.Lookup(*chip).Status()
		fmt.Printf("%s re-enrolled: health=%v, issued history preserved (%d challenges stay burned)\n",
			*chip, st.Health, st.Issued)
	default:
		fmt.Fprintf(os.Stderr, "puflab health: unknown subcommand %q\n\n", sub)
		healthUsage()
		os.Exit(2)
	}

	if err := reg.Close(); err != nil {
		fail("flushing registry: %v", err)
	}
}

// healthReport prints one row per chip plus a fleet summary.
func healthReport(reg *registry.Registry) {
	type row struct {
		id string
		st registry.Status
	}
	var rows []row
	reg.Range(func(e *registry.Entry) bool {
		rows = append(rows, row{e.ID(), e.Status()})
		return true
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })

	fmt.Printf("%-12s %-12s %9s %9s %9s %9s %8s %8s %7s\n",
		"CHIP", "HEALTH", "SESSIONS", "FAILURES", "EWMA", "CUSUM", "ISSUED", "DENIALS", "LOCKED")
	counts := map[health.State]int{}
	for _, r := range rows {
		hs := r.st.HealthStats
		counts[r.st.Health]++
		fmt.Printf("%-12s %-12s %9d %9d %9.4f %9.4f %8d %8d %7v\n",
			r.id, r.st.Health, hs.Sessions, hs.Failures, hs.FailEWMA, hs.CUSUM,
			r.st.Issued, r.st.Denials, r.st.Locked)
	}
	fmt.Printf("\n%d chips: %d healthy, %d degraded, %d quarantined\n",
		len(rows), counts[health.Healthy], counts[health.Degraded], counts[health.Quarantined])
}

func healthUsage() {
	fmt.Fprintln(os.Stderr, `usage: puflab health <report|quarantine|reenroll> -state DIR [flags]

  report      drift-detector state of every registered chip
  quarantine  force a chip into quarantine (-chip chip-N)
  reenroll    re-measure, refit, and swap a chip's enrollment (-chip chip-N)

run "puflab health report -h" etc. for per-subcommand flags`)
}
