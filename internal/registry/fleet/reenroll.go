// Re-enrollment pipeline: the repair half of the lifetime-reliability loop.
// Drift detection (internal/health) quarantines a chip whose responses have
// walked out of its enrolled model; the ReEnroller brings it back by
// re-running the paper's Fig 6 enrollment against the *fielded* (aged)
// silicon — fresh soft-response measurements, a refit regression model,
// re-pooled β0/β1 thresholds — and atomically swapping the registry entry
// with registry.Replace.  The swap keeps every previously issued challenge
// burned, so a re-enrolled chip can never be probed with a challenge an
// eavesdropper has already seen, and it resets the drift detectors, so the
// chip re-earns its healthy classification under the new model.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"xorpuf/internal/core"
	"xorpuf/internal/health"
	"xorpuf/internal/registry"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
)

// ChipProvider returns the fielded device for a chip ID — the aged silicon
// as it exists in the field, fuses intact, ready for soft-response
// re-measurement.  Providers must return an independent chip object per
// call (re-enrollment measures it concurrently with live authentication
// traffic against the original).  In simulation this is typically
// fleet.Chip(seed, i, ...) replayed through the chip's stress history.
type ChipProvider func(id string) (*silicon.Chip, error)

// ReEnrollConfig parameterizes a ReEnroller.
type ReEnrollConfig struct {
	// Seed derives per-chip, per-generation measurement randomness: the
	// n-th re-enrollment of chip id draws from
	// rng.New(Seed).Split("reenroll:"+id).SplitIndex(n), so repeated
	// re-enrollments of one chip never reuse a measurement stream.
	Seed uint64
	// Enroll is the enrollment configuration (zero value = defaults).  Use
	// silicon.Corners() conditions to re-harden β against V/T excursions.
	Enroll core.EnrollConfig
	// Budget is the lifetime challenge budget for the new enrollment
	// (0 = unlimited).  The old enrollment's issued challenges count
	// against it — history stays burned.
	Budget int
	// Chip supplies the fielded device to re-measure.  Required.
	Chip ChipProvider
	// OnResult, when non-nil, observes each completed re-enrollment.  It
	// must be safe for concurrent use.
	OnResult func(id string, err error)
}

// reenrollWorkers caps concurrent re-enrollments triggered through Handle;
// enrollment is measurement-heavy and should not starve live
// authentication traffic.
const reenrollWorkers = 2

func (cfg ReEnrollConfig) normalized() ReEnrollConfig {
	if cfg.Enroll.TrainingSize == 0 {
		cfg.Enroll = core.DefaultEnrollConfig()
	}
	return cfg
}

// ReEnroller repairs drifted chips in a registry.  Wire Handle into
// netauth.Server.SetHealthHandler for automatic repair, or call ReEnroll
// directly for operator-driven repair.  All methods are safe for concurrent
// use.
type ReEnroller struct {
	cfg ReEnrollConfig
	reg *registry.Registry

	mu      sync.Mutex
	pending map[string]bool // chips with a re-enrollment in flight
	gen     map[string]int  // per-chip re-enrollment count
	closed  bool
	wg      sync.WaitGroup
	sem     chan struct{}
}

// NewReEnroller creates a re-enroller over reg.
func NewReEnroller(reg *registry.Registry, cfg ReEnrollConfig) (*ReEnroller, error) {
	if reg == nil {
		return nil, errors.New("fleet: nil registry")
	}
	if cfg.Chip == nil {
		return nil, errors.New("fleet: ReEnrollConfig.Chip provider is required")
	}
	cfg = cfg.normalized()
	return &ReEnroller{
		cfg:     cfg,
		reg:     reg,
		pending: make(map[string]bool),
		gen:     make(map[string]int),
		sem:     make(chan struct{}, reenrollWorkers),
	}, nil
}

// Handle reacts to a health transition: when the chip is quarantined, a
// re-enrollment is scheduled asynchronously.  Duplicate events
// for a chip whose repair is already in flight are ignored, so Handle can
// be wired directly to a server's health handler without debouncing.
func (re *ReEnroller) Handle(ev health.Event) {
	if ev.To != health.Quarantined {
		return
	}
	re.mu.Lock()
	if re.closed || re.pending[ev.ChipID] {
		re.mu.Unlock()
		return
	}
	re.pending[ev.ChipID] = true
	re.wg.Add(1)
	re.mu.Unlock()
	go func(id string) {
		defer re.wg.Done()
		re.sem <- struct{}{}
		defer func() { <-re.sem }()
		err := re.reenroll(id)
		re.mu.Lock()
		delete(re.pending, id)
		re.mu.Unlock()
		if re.cfg.OnResult != nil {
			re.cfg.OnResult(id, err)
		}
	}(ev.ChipID)
}

// ReEnroll synchronously re-enrolls one chip, regardless of its current
// health state (an operator decision).
func (re *ReEnroller) ReEnroll(id string) error {
	re.mu.Lock()
	if re.closed {
		re.mu.Unlock()
		return errors.New("fleet: re-enroller closed")
	}
	if re.pending[id] {
		re.mu.Unlock()
		return fmt.Errorf("fleet: re-enrollment of %q already in flight", id)
	}
	re.pending[id] = true
	re.mu.Unlock()
	err := re.reenroll(id)
	re.mu.Lock()
	delete(re.pending, id)
	re.mu.Unlock()
	return err
}

// reenroll measures, refits, and swaps one chip.
func (re *ReEnroller) reenroll(id string) (err error) {
	defer reenrollSecs.ObserveSince(time.Now())
	defer func() {
		if err != nil {
			reenrollFailed.Inc()
		} else {
			reenrollTotal.Inc()
		}
	}()
	if re.reg.Lookup(id) == nil {
		return fmt.Errorf("fleet: re-enroll: chip %q not registered", id)
	}
	chip, err := re.cfg.Chip(id)
	if err != nil {
		return fmt.Errorf("fleet: re-enroll %q: chip provider: %w", id, err)
	}
	if chip.FusesBlown() {
		// The Fig 6 measurement path needs the per-PUF counters; a chip
		// whose fuses are blown can only be replaced, not re-enrolled.
		return fmt.Errorf("fleet: re-enroll %q: fuses blown, soft responses unavailable", id)
	}
	re.mu.Lock()
	gen := re.gen[id]
	re.gen[id] = gen + 1
	re.mu.Unlock()
	src := rng.New(re.cfg.Seed).Split("reenroll:" + id).SplitIndex(gen)
	enr, err := core.EnrollChip(chip, src, re.cfg.Enroll)
	if err != nil {
		return fmt.Errorf("fleet: re-enroll %q: %w", id, err)
	}
	if err := re.reg.Replace(id, enr.Model, re.cfg.Budget); err != nil {
		return fmt.Errorf("fleet: re-enroll %q: %w", id, err)
	}
	return nil
}

// Wait blocks until every in-flight re-enrollment completes.
func (re *ReEnroller) Wait() { re.wg.Wait() }

// Close stops accepting new work and waits for in-flight repairs.
func (re *ReEnroller) Close() {
	re.mu.Lock()
	re.closed = true
	re.mu.Unlock()
	re.wg.Wait()
}
