// fleet: exercise the registry + enrollment pipeline at manufacturing scale
// and report its throughput numbers — registrations/sec out of the parallel
// worker pool, lookups/sec against the sharded store, and (with -dir)
// crash-recovery time from snapshot + WAL.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xorpuf/internal/core"
	"xorpuf/internal/registry"
	"xorpuf/internal/registry/fleet"
)

func runFleet(args []string) {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	chips := fs.Int("chips", 1000, "fleet size to enroll")
	workers := fs.Int("workers", 0, "enrollment worker-pool size (0 = GOMAXPROCS)")
	xorWidth := fs.Int("xor", 4, "XOR width of each chip")
	seed := fs.Uint64("seed", 1, "simulation seed")
	dir := fs.String("dir", "", "registry state directory (empty = in-memory, skips the recovery phase)")
	budget := fs.Int("budget", 0, "lifetime challenge budget per chip (0 = unlimited)")
	train := fs.Int("train", 500, "enrollment training-set size per PUF")
	validate := fs.Int("validate", 2000, "enrollment validation-set size")
	lookups := fs.Int("lookups", 200000, "total lookups in the concurrent probe phase")
	snapEvery := fs.Int("snap-every", 0, "WAL records between snapshots (0 = default 4096, negative = manual only)")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "puflab fleet: "+format+"\n", args...)
		os.Exit(1)
	}

	reg, err := registry.Open(*dir, registry.Options{Seed: *seed + 1, SnapshotEvery: *snapEvery})
	if err != nil {
		fail("opening registry: %v", err)
	}
	enrollCfg := core.DefaultEnrollConfig()
	enrollCfg.TrainingSize = *train
	enrollCfg.ValidationSize = *validate

	rep, err := fleet.Run(fleet.Config{
		Chips:        *chips,
		Workers:      *workers,
		XORWidth:     *xorWidth,
		Seed:         *seed,
		Enroll:       enrollCfg,
		Budget:       *budget,
		SkipExisting: true,
		Progress:     fleet.PrintProgress(*chips),
	}, reg)
	if err != nil {
		fail("enrollment: %v (enrolled %d, failed %d)", err, rep.Enrolled, rep.Failed)
	}
	fmt.Printf("enrollment: %d chips (%d already present) in %v — %.1f registrations/s\n",
		rep.Enrolled, rep.Skipped, rep.Duration.Round(time.Millisecond), rep.PerSecond)

	// Concurrent lookup probe: every worker hammers random IDs through the
	// sharded read path (Lookup + Status), the per-session admission work of
	// a verification server.
	probeWorkers := runtime.GOMAXPROCS(0)
	perWorker := *lookups / probeWorkers
	var misses atomic.Int64
	var wg sync.WaitGroup
	probeStart := time.Now()
	for w := 0; w < probeWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("chip-%d", src.Intn(*chips))
				e := reg.Lookup(id)
				if e == nil {
					misses.Add(1)
					continue
				}
				_ = e.Status()
			}
		}(w)
	}
	wg.Wait()
	probed := probeWorkers * perWorker
	elapsed := time.Since(probeStart)
	if misses.Load() > 0 {
		fail("lookup probe: %d missing chips", misses.Load())
	}
	fmt.Printf("lookup probe: %d lookups across %d workers in %v — %.0f lookups/s\n",
		probed, probeWorkers, elapsed.Round(time.Millisecond),
		float64(probed)/elapsed.Seconds())

	if err := reg.Close(); err != nil { // compacts into the snapshot
		fail("close: %v", err)
	}
	if *dir == "" {
		return
	}

	// Recovery phase: reopen the persisted state and verify the fleet.
	recStart := time.Now()
	reg2, err := registry.Open(*dir, registry.Options{Seed: *seed + 1, SnapshotEvery: *snapEvery})
	if err != nil {
		fail("recovery: %v", err)
	}
	recElapsed := time.Since(recStart)
	if got := reg2.Len(); got != *chips {
		fail("recovery: %d chips recovered, want %d", got, *chips)
	}
	fmt.Printf("recovery: %d chips restored from %s in %v\n", *chips, *dir, recElapsed.Round(time.Microsecond))
	if err := reg2.Close(); err != nil {
		fail("close after recovery: %v", err)
	}
}
