// Fleet enrollment at manufacturing scale: a worker pool enrolls hundreds of
// chips in parallel into a persistent sharded registry, a crash (process
// death without shutdown) loses nothing, and — the security-critical part —
// the paper's never-reuse challenge rule (Fig 7 "Record challenge") holds
// ACROSS the crash: the recovered registry regenerates the exact same
// candidate challenge streams, yet reissues none of the pre-crash
// challenges, because the issued-challenge history is journaled in the WAL.
//
//	go run ./examples/fleet_enrollment
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"xorpuf"
	"xorpuf/internal/registry"
	"xorpuf/internal/registry/fleet"
)

func main() {
	dir, err := os.MkdirTemp("", "xorpuf-fleet-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Manufacturing run: enroll a fleet of 4-XOR chips in parallel.  Every
	// chip's silicon and enrollment randomness derive from per-chip
	// sub-streams of one seed, so the fleet is reproducible regardless of
	// worker count.
	reg, err := registry.Open(dir, registry.Options{Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	enrollCfg := xorpuf.DefaultEnrollConfig()
	enrollCfg.TrainingSize = 500
	enrollCfg.ValidationSize = 2000
	rep, err := fleet.Run(fleet.Config{
		Chips:    200,
		XORWidth: 4,
		Seed:     1,
		Enroll:   enrollCfg,
		Budget:   10000, // lifetime CRP exposure cap per chip
	}, reg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("enrolled %d chips in %v (%.0f chips/s)\n",
		rep.Enrolled, rep.Duration.Round(time.Millisecond), rep.PerSecond)

	// The verifier starts issuing challenges: 40 for chip-57.  Each one is
	// journaled as burned before it ever leaves the server.
	before := make(map[uint64]bool)
	cs, _, err := reg.Lookup("chip-57").Issue(40, 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range cs {
		before[w] = true
	}
	st := reg.Lookup("chip-57").Status()
	fmt.Printf("chip-57: issued %d challenges, %d of budget remaining\n", st.Issued, st.Remaining)

	// Simulate a crash: the process dies without Close.  No snapshot was
	// compacted; everything lives in the write-ahead log.
	fmt.Println("\n-- crash (no shutdown) --")

	start := time.Now()
	reg2, err := registry.Open(dir, registry.Options{Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer reg2.Close()
	fmt.Printf("recovered %d chips from the WAL in %v\n", reg2.Len(), time.Since(start).Round(time.Microsecond))
	st = reg2.Lookup("chip-57").Status()
	fmt.Printf("chip-57: %d issued challenges remembered, %d of budget remaining\n", st.Issued, st.Remaining)

	// Same registry seed ⇒ chip-57's selector regenerates the same candidate
	// stream that produced the pre-crash session.  The recovered history
	// must filter every one of them out.
	cs, _, err = reg2.Lookup("chip-57").Issue(40, 0)
	if err != nil {
		log.Fatal(err)
	}
	reused := 0
	for _, w := range cs {
		if before[w] {
			reused++
		}
	}
	fmt.Printf("post-recovery session: %d fresh challenges, %d reused (must be 0)\n", len(cs), reused)
	if reused != 0 {
		log.Fatal("never-reuse guarantee violated across restart")
	}
}
