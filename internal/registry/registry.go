// Package registry is the verification server's chip-model database at fleet
// scale: a sharded concurrent in-memory store of enrolled core.ChipModels
// and their stateful challenge selectors, made durable by an append-only WAL
// of mutations with periodic compacted snapshots.
//
// The paper's Fig 7 protocol has the server hold a "model database" and
// *record every issued challenge* so none is reused.  Both halves of that
// state are security-critical across process lifetimes: losing enrollments
// is an availability failure, but losing the used-challenge sets silently
// re-arms replay — a restarted verifier would hand an eavesdropper the same
// challenge twice, exactly what the zero-HD protocol's never-reuse rule
// exists to prevent.  The registry therefore journals challenge issuance
// (and lockout transitions) alongside registrations, and crash recovery
// replays the journal over the latest snapshot, so the guarantee holds
// through kill -9.
//
// Lifetime reliability: each entry owns a health.Tracker fed by RecordAuth
// after every authentication verdict.  Tracker state is journaled with each
// outcome (recHealth) and captured in snapshots, so a chip quarantined for
// drift stays quarantined across kill -9; Replace atomically swaps in a
// re-enrolled model while burning the old challenge history (recReenroll).
//
// Concurrency: chip IDs are fnv-1a-sharded over N independent RWMutex-guarded
// maps, so lookups from thousands of concurrent authentication sessions
// never contend on one global lock (the sharded-vs-single-mutex benchmark
// quantifies the win).  Each entry additionally owns a mutex for its mutable
// per-chip state, so two sessions for different chips never serialize.
//
// Lock order (must hold everywhere): opmu → shard.mu / Entry.mu → pmu.
package registry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"xorpuf/internal/core"
	"xorpuf/internal/health"
	"xorpuf/internal/rng"
)

// ErrDuplicate is returned when registering a chip ID that already exists.
var ErrDuplicate = errors.New("registry: chip already registered")

// ErrClosed is returned for mutations after Close.
var ErrClosed = errors.New("registry: closed")

// Options configures a Registry.
type Options struct {
	// Seed drives per-chip challenge-generation streams.  A restarted
	// registry opened with the same seed regenerates the same candidate
	// streams; the persisted used-challenge sets filter out everything
	// already issued, so determinism costs nothing in security.
	Seed uint64
	// Shards is the shard count, rounded up to a power of two (default 64).
	Shards int
	// SnapshotEvery compacts the WAL into a snapshot after this many
	// journal records (0 = default 4096; negative = never auto-compact,
	// Compact must be called explicitly).
	SnapshotEvery int
	// Fsync forces an fsync per WAL append.  Off by default: appends are
	// still single write syscalls (data survives process death), fsync
	// additionally survives OS/power failure at a large throughput cost.
	Fsync bool
}

func (o Options) normalized() Options {
	if o.Shards <= 0 {
		o.Shards = 64
	}
	n := 1
	for n < o.Shards {
		n <<= 1
	}
	o.Shards = n
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 4096
	}
	return o
}

type shard struct {
	mu sync.RWMutex
	m  map[string]*Entry
}

// Registry is a persistent sharded chip-model store.  All methods are safe
// for concurrent use.
type Registry struct {
	opts Options

	shards []shard
	mask   uint64

	// opmu is held R by every mutating operation and W by Compact/Close,
	// so compaction observes a quiescent store without stopping reads.
	opmu sync.RWMutex

	// pmu serializes WAL appends and sequence-number assignment.
	pmu       sync.Mutex
	dir       string
	wal       *walFile
	seq       uint64
	sinceSnap int

	closed     atomic.Bool
	compacting atomic.Bool

	// closeOnce/closeDone make Close idempotent and concurrent-safe: every
	// caller observes the one real shutdown complete before returning.
	closeOnce sync.Once
	closeDone chan struct{}
	closeErr  error

	// Replication hooks (nil when the registry is not replicated).  The
	// observer list is copy-on-write behind an atomic pointer so the append
	// path never takes obsMu: a replication primary and a live migration
	// source can tap the journal simultaneously while traffic is hot.
	obsMu      sync.Mutex
	appendObs  atomic.Pointer[[]*AppendObserver]
	commitWait atomic.Pointer[CommitWaiter]

	// Migration/ownership state (see migrate.go).  ownMu is a leaf lock:
	// taken under opmu/shard/entry locks, never holding them or pmu.
	ownMu sync.Mutex
	own   ownState
}

// Open creates or recovers a registry.  dir == "" yields a volatile
// in-memory registry (no WAL, no snapshots) that never fails to open;
// otherwise dir is created if needed, the latest snapshot is loaded, and the
// WAL tail is replayed over it.
func Open(dir string, opts Options) (*Registry, error) {
	r := &Registry{opts: opts.normalized(), dir: dir, closeDone: make(chan struct{})}
	r.own.init()
	r.shards = make([]shard, r.opts.Shards)
	r.mask = uint64(r.opts.Shards - 1)
	for i := range r.shards {
		r.shards[i].m = make(map[string]*Entry)
	}
	if dir == "" {
		return r, nil
	}
	if err := r.recover(); err != nil {
		return nil, err
	}
	return r, nil
}

// fnv-1a over the chip ID picks the shard; inlined so the hot lookup path
// allocates nothing.
func (r *Registry) shard(id string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return &r.shards[h&r.mask]
}

func (r *Registry) newSelector(id string, model *core.ChipModel) *core.Selector {
	// Fresh parent per chip, so streams are independent of registration
	// order and reproducible after restart.
	return core.NewSelector(model, rng.New(r.opts.Seed).Split("chip-"+id))
}

// checkModel rejects a model the selector cannot serve: no members, more
// than maxWidth of them, or members whose stage counts differ or fall
// outside 1..maxStages.
func checkModel(model *core.ChipModel) error {
	if model == nil || model.Width() == 0 || model.PUFs[0] == nil {
		return errors.New("registry: nil or empty model")
	}
	k := model.Stages()
	bad := model.Width() > maxWidth || k < 1 || k > maxStages
	for _, m := range model.PUFs {
		bad = bad || m == nil || m.Stages() != k
	}
	if bad {
		return fmt.Errorf("registry: unsupported model geometry %d×%d", model.Width(), k)
	}
	return nil
}

// checkBudget rejects a budget the journal cannot carry: it is recorded as
// a uint32, so a negative or larger one would replay as another value.
func checkBudget(budget int) error {
	if budget < 0 || uint64(budget) > math.MaxUint32 {
		return fmt.Errorf("registry: budget %d outside 0..%d", budget, uint32(math.MaxUint32))
	}
	return nil
}

// Register adds an enrolled chip model under id with a lifetime challenge
// budget (0 = unlimited, at most math.MaxUint32), durably journaling the
// registration.
func (r *Registry) Register(id string, model *core.ChipModel, budget int) error {
	if id == "" || len(id) > maxIDLen {
		return fmt.Errorf("registry: invalid chip ID %q", id)
	}
	if err := checkModel(model); err != nil {
		return err
	}
	if err := checkBudget(budget); err != nil {
		return err
	}
	if r.closed.Load() {
		return ErrClosed
	}
	r.opmu.RLock()
	defer r.opmu.RUnlock()
	// Under opmu.R so the check cannot race SetRangeFence/CutoverSource,
	// which hold opmu.W.
	switch st, redirect := r.Ownership(id); st {
	case OwnershipDeparted:
		// The range was migrated away; registering here would create a
		// second owner for the ID.  Enroll at the current owner instead.
		return fmt.Errorf("registry: chip %q is in a range migrated to %s", id, redirect)
	case OwnershipFenced:
		// Mid-handoff: a registration journaled now would land after the
		// migration's final delta drain and never reach the new owner.
		return ErrMigrating
	}
	e := r.newEntry(record{id: id, budget: budget, model: model})
	sh := r.shard(id)
	sh.mu.Lock()
	if _, dup := sh.m[id]; dup {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDuplicate, id)
	}
	sh.m[id] = e
	sh.mu.Unlock()
	if err := r.appendRecord(recRegister, registerPayload(id, budget, model)); err != nil {
		// Not durable — roll back visibility so callers can retry.
		sh.mu.Lock()
		delete(sh.m, id)
		sh.mu.Unlock()
		return err
	}
	chipsGauge.Inc()
	return nil
}

// Lookup returns the live entry for id, or nil.
func (r *Registry) Lookup(id string) *Entry {
	sh := r.shard(id)
	// TryRLock first: a failure means a writer (or writer-waiting reader
	// queue) held the shard, which is exactly the contention the
	// registry_shard_contention_total counter is sizing.  The fallback
	// blocks as before, so behavior is unchanged.
	if !sh.mu.TryRLock() {
		shardContention.Inc()
		sh.mu.RLock()
	}
	e := sh.m[id]
	sh.mu.RUnlock()
	return e
}

// Deregister revokes a chip's enrollment (journaled), reporting whether the
// chip was registered.  A deregistered chip's used-challenge history is
// dropped with it; re-registering the same ID starts a fresh selector, so
// revoked IDs should not be recycled for distrusted silicon.
func (r *Registry) Deregister(id string) bool {
	if r.closed.Load() {
		return false
	}
	r.opmu.RLock()
	defer r.opmu.RUnlock()
	if !r.drop(id) {
		return false
	}
	_ = r.appendRecord(recDeregister, appendString(nil, id))
	return true
}

// drop removes id's entry from the store, and from the arrival set of the
// migration it was arriving in, reporting whether it was there.
func (r *Registry) drop(id string) bool {
	sh := r.shard(id)
	sh.mu.Lock()
	e, ok := sh.m[id]
	delete(sh.m, id)
	sh.mu.Unlock()
	if !ok {
		return false
	}
	chipsGauge.Dec()
	if migID := e.arrivingIn(); migID != "" {
		r.ownMu.Lock()
		if a := r.own.arrivals[migID]; a != nil {
			delete(a.chips, id)
		}
		r.ownMu.Unlock()
	}
	return true
}

// Len returns the number of registered chips.
func (r *Registry) Len() int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Close compacts (when persistent) and releases the WAL.  A registry that is
// killed without Close loses nothing — recovery replays the WAL — Close just
// makes the next Open a pure snapshot load.
//
// Close is idempotent and safe under concurrent use (including a concurrent
// Range whose callback is mid-flight): exactly one caller performs the
// shutdown, and every caller — first or repeat — returns only after it has
// finished, with the same error.
func (r *Registry) Close() error {
	r.closeOnce.Do(func() {
		defer close(r.closeDone)
		r.closed.Store(true)
		r.opmu.Lock()
		defer r.opmu.Unlock()
		if r.wal == nil {
			return
		}
		cerr := r.compactLocked()
		werr := r.wal.close()
		r.wal = nil
		if cerr != nil {
			r.closeErr = cerr
		} else {
			r.closeErr = werr
		}
	})
	<-r.closeDone
	return r.closeErr
}

// Status is a point-in-time snapshot of one chip's accounting.
type Status struct {
	// Issued is how many distinct challenges the chip has burned.
	Issued int
	// Remaining is the unissued remainder of the budget, or -1 if
	// unbudgeted.
	Remaining int
	// Denials counts denied verdicts since the last approval.
	Denials int
	// Locked reports whether the chip is locked out for abuse (consecutive
	// denials); distinct from health quarantine, which tracks drift.
	Locked bool
	// Health is the chip's lifetime-reliability classification.
	Health health.State
	// HealthStats is the drift-detector state behind the classification.
	HealthStats health.TrackerState
}

// Entry is one live registered chip.  All methods are safe for concurrent
// use; per-entry state is guarded by the entry's own mutex so sessions for
// different chips never serialize on each other.
type Entry struct {
	id  string
	reg *Registry

	mu          sync.Mutex
	model       *core.ChipModel
	selector    *core.Selector
	tracker     *health.Tracker
	lastAttempt time.Time
	denials     int
	locked      bool
	// arriving is the migration ID while this chip is streaming in from a
	// rebalance source ("" once live).  An arriving chip refuses issuance —
	// the source is still authoritative until cutover.
	arriving string
}

// newEntry builds an entry from a record's chip state: id, budget and model,
// plus, for a migrate-in record, the used set, abuse counters and drift
// detectors.
func (r *Registry) newEntry(rec record) *Entry {
	sel := r.newSelector(rec.id, rec.model)
	sel.ImportState(core.SelectorState{Budget: rec.budget, Used: rec.words})
	tracker := health.NewTracker()
	tracker.Restore(rec.health)
	return &Entry{id: rec.id, reg: r, model: rec.model, selector: sel,
		denials: rec.denials, locked: rec.locked, tracker: tracker}
}

// ID returns the chip identifier.
func (e *Entry) ID() string { return e.id }

// arrivingIn returns the migration the chip is arriving in ("" once live).
func (e *Entry) arrivingIn() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.arriving
}

// Model returns the chip's current enrolled model.  Individual models are
// immutable, but Replace swaps which model an entry holds, so the pointer
// read takes the entry lock.
func (e *Entry) Model() *core.ChipModel {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.model
}

// Status reports the chip's current accounting.
func (e *Entry) Status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Status{
		Issued:      e.selector.Issued(),
		Remaining:   e.selector.Remaining(),
		Denials:     e.denials,
		Locked:      e.locked,
		Health:      e.tracker.State(),
		HealthStats: e.tracker.Snapshot(),
	}
}

// HealthState returns the chip's lifetime-reliability classification.
func (e *Entry) HealthState() health.State {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tracker.State()
}

// Admit performs per-chip admission control for one authentication attempt:
// it reports the lockout flag and whether the attempt violates the throttle
// interval, recording the attempt time when it does not.  The attempt
// timestamp is deliberately volatile (not journaled): a restart reopens the
// throttle window, which is harmless — lockout, the security-critical flag,
// is durable.
func (e *Entry) Admit(now time.Time, throttle time.Duration) (locked, throttled bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	throttled = throttle > 0 && !e.lastAttempt.IsZero() && now.Sub(e.lastAttempt) < throttle
	if !throttled {
		e.lastAttempt = now
	}
	return e.locked, throttled
}

// Issue draws fresh never-reused challenges from the chip's selector, as
// words in Selector.Next's layout, and journals them before returning, so
// the never-reuse guarantee survives a crash between issuance and the
// device's answer.  On selection failure any partially recorded challenges
// are still journaled — they are burned either way.
func (e *Entry) Issue(count, maxExamined int) ([]uint64, []uint8, error) {
	return e.issueBurned(context.Background(), recIssued, count, maxExamined)
}

// IssueCtx is Issue with a request context.  ctx carries observability state
// only (a dtrace trace context threads through to the replication quorum
// wait, which records its ack latency as a child span); it does not cancel
// the issuance — once the burn is journaled the wait runs to its own
// verdict, exactly as in Issue.
func (e *Entry) IssueCtx(ctx context.Context, count, maxExamined int) ([]uint64, []uint8, error) {
	return e.issueBurned(ctx, recIssued, count, maxExamined)
}

// IssueKeyCtx draws challenges for a key-derivation handshake.  They burn
// from the same never-reuse budget as authentication challenges — a chosen-
// challenge adversary does not care which protocol carried a challenge off
// the server — but are journaled under their own record type so the WAL
// stays auditable by workload.  ctx is used as in IssueCtx.
func (e *Entry) IssueKeyCtx(ctx context.Context, count, maxExamined int) ([]uint64, []uint8, error) {
	return e.issueBurned(ctx, recKeyIssued, count, maxExamined)
}

// issueBurned is the shared issuance path: select, journal under rectype,
// quorum-commit, and only then release the challenges.
func (e *Entry) issueBurned(ctx context.Context, rectype byte, count, maxExamined int) ([]uint64, []uint8, error) {
	if e.reg.closed.Load() {
		return nil, nil, ErrClosed
	}
	e.reg.opmu.RLock()
	defer e.reg.opmu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	// Migration fail-closed check, re-done under opmu.R and the entry lock
	// so it cannot race a fence being set (SetRangeFence holds opmu.W):
	// a fenced or still-arriving chip gets a structured retryable refusal,
	// never a challenge that the other owner might also issue.
	if err := e.reg.issueAllowed(e.id, e.arriving); err != nil {
		return nil, nil, err
	}
	words, bits, err := e.selector.Next(count, maxExamined)
	if len(words) > 0 {
		payload := make([]byte, 0, 2+len(e.id)+4+8*len(words))
		payload = appendString(payload, e.id)
		payload = appendU32(payload, uint32(len(words)))
		for _, w := range words {
			payload = appendU64(payload, w)
		}
		seq, werr := e.reg.appendRecordSeq(rectype, payload)
		if werr == nil {
			// Replication-aware issuance: when a commit waiter is attached
			// the burned words must also be acknowledged by the follower
			// quorum before they leave the server, so never-reuse holds
			// across primary loss, not just primary restart.
			werr = e.reg.waitCommitted(ctx, seq)
		}
		if werr != nil {
			// The words are recorded in memory (and possibly on disk) but
			// not safely committed; refuse to hand them out.  Conservative:
			// challenges burn, none reissue.
			return nil, nil, werr
		}
	}
	return words, bits, err
}

// Verdict records the outcome of one authentication: an approval clears the
// denial streak, a denial extends it and — with lockoutK > 0 — quarantines
// the chip at K consecutive denials.  The resulting streak and lockout flag
// are journaled.  It returns whether the chip is now locked.
func (e *Entry) Verdict(approved bool, lockoutK int) bool {
	e.reg.opmu.RLock()
	defer e.reg.opmu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if approved {
		e.denials = 0
	} else {
		e.denials++
		if lockoutK > 0 && e.denials >= lockoutK {
			e.locked = true
		}
	}
	// A journal failure here degrades durability of the abuse counters
	// only; the in-memory lockout still enforces, so don't fail the
	// already-decided verdict.
	_ = e.reg.appendRecord(recAbuse, abusePayload(e.id, e.denials, e.locked))
	return e.locked
}

// Lock forces a lockout immediately, bypassing the consecutive-denial
// streak — the enforcement path for a suspected-modeling-attack alert or
// an operator decision.  Journaled like any abuse-state change.  It
// reports whether the chip was previously unlocked.
func (e *Entry) Lock() bool {
	e.reg.opmu.RLock()
	defer e.reg.opmu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.locked {
		return false
	}
	e.locked = true
	_ = e.reg.appendRecord(recAbuse, abusePayload(e.id, e.denials, true))
	return true
}

// Unlock lifts a lockout (an operator decision), journaled.  It reports
// whether the chip was locked.
func (e *Entry) Unlock() bool {
	e.reg.opmu.RLock()
	defer e.reg.opmu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.locked {
		return false
	}
	e.locked = false
	e.denials = 0
	_ = e.reg.appendRecord(recAbuse, abusePayload(e.id, 0, false))
	return true
}

// RecordAuth folds one authentication session's outcome into the chip's
// drift detectors and journals the updated detector state, so the health
// classification survives kill -9.  The transition event, if any, carries
// the chip ID.  Like Verdict, a journal failure degrades durability only —
// the in-memory classification still enforces.
func (e *Entry) RecordAuth(o health.Outcome) (health.Event, bool) {
	if e.reg.closed.Load() {
		return health.Event{}, false
	}
	e.reg.opmu.RLock()
	defer e.reg.opmu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	ev, ok := e.tracker.Record(o)
	_ = e.reg.appendRecord(recHealth, healthPayload(e.id, e.tracker.Snapshot()))
	if ok {
		ev.ChipID = e.id
	}
	return ev, ok
}

// ForceHealth moves the chip to health state s unconditionally (an operator
// decision), journaled.  It reports the transition if the state changed.
func (e *Entry) ForceHealth(s health.State) (health.Event, bool) {
	if e.reg.closed.Load() {
		return health.Event{}, false
	}
	e.reg.opmu.RLock()
	defer e.reg.opmu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	ev, ok := e.tracker.Force(s)
	if ok {
		ev.ChipID = e.id
		_ = e.reg.appendRecord(recHealth, healthPayload(e.id, e.tracker.Snapshot()))
	}
	return ev, ok
}

// Replace atomically swaps a chip's enrollment for a freshly re-enrolled
// model: the new model and budget go live, the drift detectors and abuse
// counters reset, and — security-critical — every challenge the retired
// model ever issued stays burned in the new selector, so re-enrollment can
// never resurrect a challenge an eavesdropper has already seen.  The swap
// is journaled (recReenroll) before it takes effect; on journal failure the
// old enrollment stays and the error is returned.  The new model must keep
// the chip's stage count, the width of every word the entry issues.
func (r *Registry) Replace(id string, model *core.ChipModel, budget int) error {
	if err := checkModel(model); err != nil {
		return err
	}
	if err := checkBudget(budget); err != nil {
		return err
	}
	if r.closed.Load() {
		return ErrClosed
	}
	r.opmu.RLock()
	defer r.opmu.RUnlock()
	e := r.Lookup(id)
	if e == nil {
		return fmt.Errorf("registry: replace: chip %q not registered", id)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if k := e.model.Stages(); model.Stages() != k {
		return fmt.Errorf("registry: replace: chip %q has %d stages, new model %d", id, k, model.Stages())
	}
	if err := r.appendRecord(recReenroll, registerPayload(id, budget, model)); err != nil {
		return err
	}
	e.reenroll(model, budget)
	return nil
}

// reenroll swaps in a re-enrolled model and budget (e.mu held): every
// challenge the retired model issued stays burned in the new selector, and
// the abuse counters and drift detectors reset.
func (e *Entry) reenroll(model *core.ChipModel, budget int) {
	sel := e.reg.newSelector(e.id, model)
	sel.ImportState(core.SelectorState{Budget: budget, Used: e.selector.ExportState().Used})
	e.model, e.selector = model, sel
	e.denials, e.locked = 0, false
	e.tracker.Reset()
}

// Range calls fn for every registered chip until fn returns false.  The
// entries of each shard are collected under its read lock but fn runs with
// no registry lock held, so it may freely call entry methods.  Iteration
// order is unspecified; chips registered or dropped concurrently may or may
// not be visited.
func (r *Registry) Range(fn func(*Entry) bool) {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		entries := make([]*Entry, 0, len(sh.m))
		for _, e := range sh.m {
			entries = append(entries, e)
		}
		sh.mu.RUnlock()
		for _, e := range entries {
			if !fn(e) {
				return
			}
		}
	}
}

// install places (or replaces) an entry in its shard.
func (r *Registry) install(e *Entry) {
	sh := r.shard(e.id)
	sh.mu.Lock()
	if _, had := sh.m[e.id]; !had {
		chipsGauge.Inc()
	}
	sh.m[e.id] = e
	sh.mu.Unlock()
}
