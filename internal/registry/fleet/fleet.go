// Package fleet is the parallel enrollment pipeline that fills a registry at
// manufacturing scale: a worker pool fabricates simulated silicon.Chips,
// runs the paper's Fig 6 enrollment on each (soft-response measurement →
// core.EnrollChip), and writes the resulting models into a
// registry.Registry.
//
// Determinism: every chip's silicon and enrollment randomness derive from
// per-chip sub-streams of a single seed (rng.New(seed).Fork("chip", i) /
// Fork("enroll", i)), so the enrolled fleet is bit-identical regardless of
// worker count or scheduling — and identical to what `puflab auth` re-derives
// on the device side from the same seed.
package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xorpuf/internal/core"
	"xorpuf/internal/registry"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
	"xorpuf/internal/telemetry"
)

// Pipeline instruments, captured once from the Default registry.  Enrollment
// is seconds-per-chip work, so per-chip histogram observes are free by
// comparison.
var (
	enrolledTotal  = telemetry.Default.Counter("fleet_enrolled_total")
	skippedTotal   = telemetry.Default.Counter("fleet_skipped_total")
	failedTotal    = telemetry.Default.Counter("fleet_failed_total")
	enrollSeconds  = telemetry.Default.Histogram("fleet_enroll_seconds", telemetry.LatencyBuckets)
	activeWorkers  = telemetry.Default.Gauge("fleet_active_workers")
	reenrollTotal  = telemetry.Default.Counter("fleet_reenroll_total")
	reenrollFailed = telemetry.Default.Counter("fleet_reenroll_failed_total")
	reenrollSecs   = telemetry.Default.Histogram("fleet_reenroll_seconds", telemetry.LatencyBuckets)
)

// Config parameterizes one fleet enrollment run.
type Config struct {
	// Chips is the fleet size; chips are registered as <IDPrefix>0 …
	// <IDPrefix>{Chips-1}.
	Chips int
	// Workers is the enrollment worker-pool size (0 = GOMAXPROCS).
	Workers int
	// XORWidth is each chip's XOR width (0 = 6, matching `puflab serve`).
	XORWidth int
	// Seed derives all per-chip randomness.
	Seed uint64
	// Params are the fabrication/measurement parameters (zero value =
	// silicon.DefaultParams()).
	Params silicon.Params
	// Enroll is the per-chip enrollment configuration (zero value =
	// core.DefaultEnrollConfig()).
	Enroll core.EnrollConfig
	// Budget is the lifetime challenge budget registered per chip
	// (0 = unlimited).
	Budget int
	// IDPrefix prefixes chip indices to form IDs (default "chip-").
	IDPrefix string
	// SkipExisting makes the pipeline a resumable upsert: chips already in
	// the registry (e.g. recovered from a previous run's WAL) are skipped
	// instead of failing with a duplicate error.
	SkipExisting bool
	// Progress, when non-nil, is invoked after each chip completes with
	// (completed, total).  It must be safe for concurrent use.
	Progress func(done, total int)
}

func (cfg Config) normalized() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.XORWidth <= 0 {
		cfg.XORWidth = 6
	}
	if cfg.Params == (silicon.Params{}) {
		cfg.Params = silicon.DefaultParams()
	}
	if cfg.Enroll.TrainingSize == 0 {
		cfg.Enroll = core.DefaultEnrollConfig()
	}
	if cfg.IDPrefix == "" {
		cfg.IDPrefix = "chip-"
	}
	return cfg
}

// Report summarizes a fleet run.
type Report struct {
	// Enrolled counts chips newly enrolled and registered by this run.
	Enrolled int
	// Skipped counts chips already present (SkipExisting).
	Skipped int
	// Failed counts chips whose enrollment or registration failed.
	Failed int
	// Duration is the wall-clock time of the run.
	Duration time.Duration
	// PerSecond is Enrolled/Duration.
	PerSecond float64
}

// Chip re-fabricates fleet member i — the same silicon a genuine device
// holds.  Exposed so clients/tests can authenticate against a
// fleet-enrolled server without re-running enrollment.
func Chip(seed uint64, i int, params silicon.Params, xorWidth int) *silicon.Chip {
	return silicon.NewChip(rng.New(seed).Fork("chip", i), params, xorWidth)
}

// Provider is the ChipProvider for a fleet enrolled with seed: ID
// "chip-<i>" is Chip(seed, i, params, xorWidth), and any other ID is an
// error.
func Provider(seed uint64, params silicon.Params, xorWidth int) ChipProvider {
	return func(id string) (*silicon.Chip, error) {
		s, ok := strings.CutPrefix(id, "chip-")
		i, err := strconv.Atoi(s)
		if !ok || err != nil || i < 0 {
			return nil, fmt.Errorf("cannot derive fleet index from id %q", id)
		}
		return Chip(seed, i, params, xorWidth), nil
	}
}

// PrintProgress returns a Config.Progress callback that prints a coarse
// ticker to stdout (every ~5 % of the fleet, and on completion) without
// drowning it.
func PrintProgress(total int) func(done, total int) {
	step := total / 20
	if step < 1 {
		step = 1
	}
	return func(done, total int) {
		if done == total || done%step == 0 {
			fmt.Printf("\renrolling fleet: %d/%d", done, total)
			if done == total {
				fmt.Println()
			}
		}
	}
}

// Run enrolls the configured fleet into reg using a worker pool.  Individual
// chip failures do not abort the run; they are counted in Report.Failed and
// joined into the returned error.
func Run(cfg Config, reg *registry.Registry) (Report, error) {
	cfg = cfg.normalized()
	if cfg.Chips <= 0 {
		return Report{}, errors.New("fleet: Chips must be positive")
	}
	if reg == nil {
		return Report{}, errors.New("fleet: nil registry")
	}

	start := time.Now()
	jobs := make(chan int)
	var (
		wg       sync.WaitGroup
		done     atomic.Int64
		enrolled atomic.Int64
		skipped  atomic.Int64
		errMu    sync.Mutex
		errs     []error
	)
	fail := func(i int, err error) {
		errMu.Lock()
		// Keep the joined error bounded; the count is in the report.
		if len(errs) < 8 {
			errs = append(errs, fmt.Errorf("fleet: chip %d: %w", i, err))
		}
		errMu.Unlock()
	}
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			activeWorkers.Inc()
			defer activeWorkers.Dec()
			for i := range jobs {
				id := fmt.Sprintf("%s%d", cfg.IDPrefix, i)
				// A chip is "existing" if it is resident here OR its range
				// migrated away: a resurrected source must not re-enroll a
				// departed chip, which would fork its identity (and its
				// never-reuse history) across two owners.
				departed := func() bool {
					st, _ := reg.Ownership(id)
					return st == registry.OwnershipDeparted
				}
				if cfg.SkipExisting && (reg.Lookup(id) != nil || departed()) {
					skipped.Add(1)
					skippedTotal.Inc()
				} else {
					chipStart := time.Now()
					err := enrollOne(cfg, reg, i, id)
					enrollSeconds.ObserveSince(chipStart)
					if err != nil {
						fail(i, err)
						failedTotal.Inc()
					} else {
						enrolled.Add(1)
						enrolledTotal.Inc()
					}
				}
				if cfg.Progress != nil {
					cfg.Progress(int(done.Add(1)), cfg.Chips)
				}
			}
		}()
	}
	for i := 0; i < cfg.Chips; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	rep := Report{
		Enrolled: int(enrolled.Load()),
		Skipped:  int(skipped.Load()),
		Duration: time.Since(start),
	}
	rep.Failed = cfg.Chips - rep.Enrolled - rep.Skipped
	if secs := rep.Duration.Seconds(); secs > 0 {
		rep.PerSecond = float64(rep.Enrolled) / secs
	}
	return rep, errors.Join(errs...)
}

// enrollOne measures, fits, and registers a single fleet member.
func enrollOne(cfg Config, reg *registry.Registry, i int, id string) error {
	chip := Chip(cfg.Seed, i, cfg.Params, cfg.XORWidth)
	enr, err := core.EnrollChip(chip, rng.New(cfg.Seed).Fork("enroll", i), cfg.Enroll)
	if err != nil {
		return err
	}
	return reg.Register(id, enr.Model, cfg.Budget)
}
