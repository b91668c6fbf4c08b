// Command puflab regenerates the paper's evaluation figures from the
// simulated silicon and prints the same rows/series the paper plots.
//
// Usage:
//
//	puflab <experiment> [flags]
//
// Experiments:
//
//	fig2     soft-response distribution of one arbiter PUF
//	fig3     % stable CRPs vs XOR width (measured)
//	fig4     MLP modeling-attack accuracy sweep
//	fig8     measured vs predicted soft responses; threshold extraction
//	fig9     β threshold scaling at nominal, per chip
//	fig10    stable-challenge yield vs training-set size
//	fig11    threshold adjustment under voltage/temperature variation
//	fig12     % stable CRPs vs XOR width for all three selection regimes
//	metrics   uniqueness / reliability / uniformity panel
//	protocols paper's protocol vs refs [1],[6],[7] and classic HD
//	avalanche bit-position sensitivity of single vs XOR PUFs
//	campaign  dump a measurement dataset to CSV (-o, -corners)
//	serve     run a TCP verification server over enrolled simulated chips
//	          (-addr, -chips, -xor, -n, -lockout, -throttle, -maxconns,
//	          -budget, -drain, -state, -workers, -auto-reenroll, -admin
//	          for the observability plane, -keyex/-keyex-m/-keyex-t for
//	          the key exchange, and -fault-* chaos knobs)
//	fleet     benchmark the persistent chip registry at manufacturing scale:
//	          parallel enrollment throughput, concurrent lookups/s, and
//	          crash-recovery time (-chips, -workers, -xor, -dir, -budget,
//	          -train, -validate, -lookups, -snap-every)
//	auth      authenticate a simulated device against a serve instance
//	          (-addr, -chip, -impostor, -sessions, -attempts, -base-delay,
//	          -max-delay, -vdd, -temp, -encrypt to authenticate inside a
//	          PUF-keyed encrypted channel, and -fault-* chaos knobs)
//	keyex     establish a PUF-derived session key via the reverse fuzzy
//	          extractor and exercise the encrypted channel (-addr, -chip,
//	          -impostor, -sessions, -vdd, -temp, -payload, -no-auth;
//	          the serve side needs -keyex)
//	health    inspect and repair drift-health state in a persistent registry
//	          (report / quarantine / reenroll subcommands; -state, -chip)
//	metrics   scrape a serve instance's admin plane and pretty-print the
//	          snapshot (-addr, -raw, -json)
//	top       live terminal dashboard over a serve admin plane: windowed
//	          rates, quantiles, burn rates, alerts (-addr, -interval,
//	          -count, -window)
//	slo       one-shot SLO evaluation against a serve admin plane; exits
//	          nonzero while any alert is firing (-addr, -json, -events)
//	trace     collect distributed-trace spans from several admin planes and
//	          render one session's cross-process span tree (collect / show
//	          subcommands; -admin, -o, -in, -min-procs; "puflab auth -trace"
//	          mints the trace ID)
//	repl      inspect or drive registry replication via a serve admin plane
//	          (status / promote subcommands; -addr, -json)
//	gateway   consistent-hashing session gateway routing devices to shard
//	          owners with failover re-routing (-listen, -shard, -cooldown)
//	rebalance migrate a chip range live between serve instances and audit
//	          the never-reuse invariant across their WAL journals
//	          (start / status / abort / audit subcommands; the target needs
//	          -migrate-listen)
//	all       every experiment above (fig4 at fast scale)
//
// Common flags:
//
//	-full      run at the paper's scale (1M challenges, 10 chips; fig4
//	           sweeps n=4..11 up to 100k CRPs — hours of CPU)
//	-seed N    reseed the whole simulation (default 1)
//	-csv       emit CSV instead of aligned tables
//	-plot      fig3/fig12: ASCII log-scale chart
//
// fig4 also accepts -widths, -sizes, -testsize, -restarts and -maxiter.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"xorpuf/internal/campaign"
	"xorpuf/internal/experiments"
	"xorpuf/internal/silicon"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	switch cmd {
	case "serve":
		runServe(os.Args[2:])
		return
	case "auth":
		runAuth(os.Args[2:])
		return
	case "keyex":
		runKeyex(os.Args[2:])
		return
	case "fleet":
		runFleet(os.Args[2:])
		return
	case "health":
		runHealth(os.Args[2:])
		return
	case "metrics":
		runMetrics(os.Args[2:])
		return
	case "top":
		runTop(os.Args[2:])
		return
	case "slo":
		runSLO(os.Args[2:])
		return
	case "repl":
		runRepl(os.Args[2:])
		return
	case "gateway":
		runGateway(os.Args[2:])
		return
	case "rebalance":
		runRebalance(os.Args[2:])
		return
	case "trace":
		runTrace(os.Args[2:])
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	full := fs.Bool("full", false, "run at the paper's scale (slow)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	histogram := fs.Bool("hist", false, "fig2: also draw the ASCII histogram")
	widths := fs.String("widths", "", "fig4: comma-separated XOR widths to attack (overrides scale default)")
	sizes := fs.String("sizes", "", "fig4: comma-separated training-set sizes (overrides scale default)")
	testSize := fs.Int("testsize", 0, "fig4: test-set size (overrides scale default)")
	restarts := fs.Int("restarts", 0, "fig4: MLP restarts (overrides scale default)")
	maxIter := fs.Int("maxiter", 0, "fig4: L-BFGS iteration cap (overrides scale default)")
	out := fs.String("o", "campaign.csv", "campaign: output CSV path")
	corners := fs.Bool("corners", false, "campaign: measure at all nine V/T corners")
	plot := fs.Bool("plot", false, "fig3/fig12: draw an ASCII log-scale chart after the table")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	cfg := experiments.Fast()
	if *full {
		cfg = experiments.Full()
	}
	cfg.Seed = *seed
	if *widths != "" {
		cfg.AttackWidths = parseInts(*widths)
	}
	if *sizes != "" {
		cfg.AttackSizes = parseInts(*sizes)
	}
	if *testSize > 0 {
		cfg.AttackTestSize = *testSize
	}
	if *restarts > 0 {
		cfg.AttackMLP.Restarts = *restarts
	}
	if *maxIter > 0 {
		cfg.AttackMLP.LBFGS.MaxIter = *maxIter
	}

	runners := map[string]func(experiments.Config) *experiments.Table{
		"fig2": func(c experiments.Config) *experiments.Table {
			r := experiments.Fig2(c)
			if *histogram {
				fmt.Println(r.Hist.Render(60))
			}
			return r.Table()
		},
		"fig3": func(c experiments.Config) *experiments.Table {
			r := experiments.Fig3(c)
			if *plot {
				fmt.Println(r.Plot(50))
			}
			return r.Table()
		},
		"fig4":  func(c experiments.Config) *experiments.Table { return experiments.Fig4(c).Table() },
		"fig8":  func(c experiments.Config) *experiments.Table { return experiments.Fig8(c).Table() },
		"fig9":  func(c experiments.Config) *experiments.Table { return experiments.Fig9(c).Table() },
		"fig10": func(c experiments.Config) *experiments.Table { return experiments.Fig10(c).Table() },
		"fig11": func(c experiments.Config) *experiments.Table { return experiments.Fig11(c).Table() },
		"fig12": func(c experiments.Config) *experiments.Table {
			r := experiments.Fig12(c)
			if *plot {
				fmt.Println(r.Plot(50))
			}
			return r.Table()
		},
		"protocols": func(c experiments.Config) *experiments.Table { return experiments.Protocols(c).Table() },
		"metrics":   func(c experiments.Config) *experiments.Table { return experiments.Metrics(c).Table() },
		"avalanche": func(c experiments.Config) *experiments.Table { return experiments.Avalanche(c).Table() },
	}

	emit := func(t *experiments.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}

	switch cmd {
	case "campaign":
		conds := []silicon.Condition{silicon.Nominal}
		if *corners {
			conds = silicon.Corners()
		}
		ccfg := campaign.Config{
			Seed:       cfg.Seed,
			Params:     cfg.Params,
			Chips:      cfg.Chips,
			PUFsEach:   cfg.PUFsPerChip,
			Challenges: cfg.Challenges / 10,
			Conditions: conds,
		}
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "puflab: %v\n", err)
			os.Exit(1)
		}
		start := time.Now()
		sum, err := campaign.Run(ccfg, f)
		cerr := f.Close()
		if err != nil || cerr != nil {
			fmt.Fprintf(os.Stderr, "puflab: campaign failed: %v %v\n", err, cerr)
			os.Exit(1)
		}
		fmt.Printf("campaign: %d records (%d chips × %d PUFs × %d challenges × %d conditions)\n",
			sum.Records, ccfg.Chips, ccfg.PUFsEach, ccfg.Challenges, len(conds))
		fmt.Printf("simulated evaluations: %d; stable fraction: %.4f\n", sum.Evaluations, sum.StableFrac)
		fmt.Printf("dataset written to %s in %v\n", *out, time.Since(start).Round(time.Millisecond))
		return
	case "all":
		order := []string{"fig2", "fig3", "fig4", "fig8", "fig9", "fig10", "fig11", "fig12", "metrics", "protocols", "avalanche"}
		for _, name := range order {
			c := cfg
			if name == "fig4" && *full {
				// Keep `all -full` tractable: fig4 full-scale is
				// hours of CPU and must be requested explicitly.
				c = experiments.Fast()
				c.Seed = *seed
				fmt.Println("(fig4 runs at fast scale under `all`; use `puflab fig4 -full` for the n=4..11 sweep)")
			}
			start := time.Now()
			emit(runners[name](c))
			fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		}
	default:
		run, ok := runners[cmd]
		if !ok {
			fmt.Fprintf(os.Stderr, "puflab: unknown experiment %q\n\n", cmd)
			usage()
			os.Exit(2)
		}
		start := time.Now()
		emit(run(cfg))
		fmt.Fprintf(os.Stderr, "[completed in %v]\n", time.Since(start).Round(time.Millisecond))
	}
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "puflab: bad integer list entry %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func usage() {
	fmt.Fprintln(os.Stderr, `puflab — regenerate the DAC'17 XOR arbiter PUF evaluation

usage: puflab <experiment> [-full] [-seed N] [-csv]

experiments: fig2 fig3 fig4 fig8 fig9 fig10 fig11 fig12 metrics protocols avalanche campaign all
network:     serve auth keyex gateway (run "puflab serve -h" / "puflab auth -h" for the resilience and
             fault-injection knobs; "puflab serve -keyex" + "puflab keyex" establish PUF-derived session keys;
             "puflab serve -primary/-follower" replicates the registry; "puflab gateway" fronts the shards)
replication: repl         (status / promote against a serve admin plane; promote fails over to a follower)
rebalancing: rebalance    (live chip-range migration between serves: start / status / abort, plus an offline
             never-reuse audit over WAL journals; the target serve needs -migrate-listen)
fleet:       fleet        (persistent registry benchmark: enrollment throughput, lookups/s, recovery time)
lifecycle:   health       (drift-detector report, force-quarantine, re-enrollment; "puflab health" for usage)
observe:     metrics top slo trace ("puflab metrics" scrapes a serve -admin plane; "puflab top" is a
             live dashboard; "puflab slo" gates on firing alerts; "puflab trace" renders one session's
             span tree across gateway, shard, and follower)`)
}
