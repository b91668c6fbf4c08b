// Migration surface: the registry-side state machine that lets a chip range
// move between shard owners without ever weakening the paper's never-reuse
// rule (Fig 7).  The rebalance engine (internal/registry/rebalance) drives
// these APIs; everything here is journaled through the same WAL as normal
// mutations, so ownership — like the burned-challenge history — survives
// kill -9 on either side of a migration.
//
// The ownership model:
//
//   - A chip is OWNED by the registry that serves it (the common case).
//   - While an outbound migration is in its handoff window the range is
//     FENCED: issuance returns ErrMigrating (a structured, retryable
//     refusal — never a silent drop), and the fence itself is a WAL record
//     (recRangeFence), so a source that crashes mid-handoff comes back
//     still refusing to issue for the range until the migration resolves.
//   - On the target, chips stream in as ARRIVING (recMigrateIn): present,
//     replicating to the target's own followers, but refusing issuance
//     until cutover.
//   - Cutover is a two-phase record (recCutover) journaled on BOTH sides:
//     the target's record makes the arriving chips live; the source's
//     record drops the range and leaves a durable DEPARTED marker carrying
//     the new owner's address, so a resurrected source answers "moved to X"
//     instead of issuing — dual ownership fails closed.
//
// Epochs order ownership transfers: every cutover carries an epoch one
// greater than any either side has seen, and the gateway rejects stale
// epoch swaps, so a delayed retry of an old migration can never regress
// the routing table.
package registry

import (
	"errors"
	"fmt"
	"os"

	"xorpuf/internal/health"
)

// newTrackerFrom builds a drift tracker pre-loaded with persisted state.
func newTrackerFrom(r *Registry, st health.TrackerState) *health.Tracker {
	t := health.NewTracker(r.opts.Health)
	t.Restore(st)
	return t
}

// ErrMigrating is returned by issuance for a chip whose range is fenced for
// an in-flight migration (on the source), still arriving (on the target),
// or already departed under an Entry the caller looked up before cutover.
// It is retryable: the caller should back off and retry, by which time the
// handoff window has resolved one way or the other.
var ErrMigrating = errors.New("registry: chip range is migrating")

// OwnershipStatus classifies a chip ID relative to this registry's ownership.
type OwnershipStatus int

const (
	// OwnershipOwned: this registry serves the chip normally.
	OwnershipOwned OwnershipStatus = iota
	// OwnershipFenced: an outbound migration's handoff window is open;
	// issuance is refused with ErrMigrating until cutover or unfence.
	OwnershipFenced
	// OwnershipArriving: the chip is streaming in from a source and is not
	// yet live here.
	OwnershipArriving
	// OwnershipDeparted: the range was migrated away; the Redirect of the
	// Ownership call names the new owner.
	OwnershipDeparted
)

func (s OwnershipStatus) String() string {
	switch s {
	case OwnershipOwned:
		return "owned"
	case OwnershipFenced:
		return "fenced"
	case OwnershipArriving:
		return "arriving"
	case OwnershipDeparted:
		return "departed"
	}
	return fmt.Sprintf("ownership(%d)", int(s))
}

// MigRange is a lexicographic chip-ID interval [Lo, Hi); Hi == "" means
// unbounded above.  Ranges are compared as raw strings, matching how the
// fleet's zero-padded or prefix-grouped IDs sort.
type MigRange struct {
	ID string `json:"id"` // migration ID the range belongs to
	Lo string `json:"lo"`
	Hi string `json:"hi"`
}

// Contains reports whether the chip ID falls inside the range.
func (m MigRange) Contains(id string) bool {
	return id >= m.Lo && (m.Hi == "" || id < m.Hi)
}

func (m MigRange) overlaps(lo, hi string) bool {
	if hi != "" && m.Lo >= hi {
		return false
	}
	if m.Hi != "" && lo >= m.Hi {
		return false
	}
	return true
}

// DepartedRange is a range this registry used to own, with the epoch of the
// cutover that moved it and the address of the new owner.
type DepartedRange struct {
	Lo       string `json:"lo"`
	Hi       string `json:"hi"`
	Epoch    uint64 `json:"epoch"`
	Redirect string `json:"redirect"`
}

func (d DepartedRange) contains(id string) bool {
	return id >= d.Lo && (d.Hi == "" || id < d.Hi)
}

// arrival tracks one inbound migration's chips while they are arriving.
type arrival struct {
	lo, hi string
	epoch  uint64
	chips  map[string]struct{}
}

// ownState is the registry's ownership book-keeping.  mu is a leaf lock:
// it is taken under opmu/shard/entry locks and never holds them (or pmu).
type ownState struct {
	epoch     uint64
	fences    []MigRange
	departed  []DepartedRange
	arrivals  map[string]*arrival
	completed map[string]uint64 // migration ID → epoch of a finished inbound cutover
}

func (o *ownState) init() {
	if o.arrivals == nil {
		o.arrivals = make(map[string]*arrival)
	}
	if o.completed == nil {
		o.completed = make(map[string]uint64)
	}
}

// Ownership classifies id against this registry's ownership state and, for
// departed ranges, returns the new owner's address.  The check is cheap in
// steady state — one leaf mutex and three empty-slice scans — which is what
// the gateway/admit hot path relies on.
func (r *Registry) Ownership(id string) (OwnershipStatus, string) {
	r.ownMu.Lock()
	defer r.ownMu.Unlock()
	for _, a := range r.own.arrivals {
		if id >= a.lo && (a.hi == "" || id < a.hi) {
			return OwnershipArriving, ""
		}
	}
	for _, f := range r.own.fences {
		if f.Contains(id) {
			return OwnershipFenced, ""
		}
	}
	for _, d := range r.own.departed {
		if d.contains(id) {
			return OwnershipDeparted, d.Redirect
		}
	}
	return OwnershipOwned, ""
}

// OwnershipEpoch returns the highest cutover epoch this registry has
// journaled (0 when it has never taken part in a migration).
func (r *Registry) OwnershipEpoch() uint64 {
	r.ownMu.Lock()
	defer r.ownMu.Unlock()
	return r.own.epoch
}

// Departed returns the ranges this registry has migrated away.
func (r *Registry) Departed() []DepartedRange {
	r.ownMu.Lock()
	defer r.ownMu.Unlock()
	out := make([]DepartedRange, len(r.own.departed))
	copy(out, r.own.departed)
	return out
}

// Fences returns the currently active outbound issuance fences.
func (r *Registry) Fences() []MigRange {
	r.ownMu.Lock()
	defer r.ownMu.Unlock()
	out := make([]MigRange, len(r.own.fences))
	copy(out, r.own.fences)
	return out
}

// MigrationCutover reports whether an inbound migration has already cut over
// on this registry, and at which epoch — the idempotence check a restarted
// source uses to learn that the target's cutover record won.
func (r *Registry) MigrationCutover(migID string) (uint64, bool) {
	r.ownMu.Lock()
	defer r.ownMu.Unlock()
	epoch, ok := r.own.completed[migID]
	return epoch, ok
}

// issueAllowed is the fail-closed issuance check, called under opmu.R and
// the entry lock so it cannot race a fence being set or a cutover
// (SetRangeFence and CutoverSource hold opmu.W).  arriving is the entry's
// own flag, authoritative on the target.  A departed range is refused too:
// an Entry looked up before cutover outlives its removal from the store,
// and a burn on it would never reach the new owner.
func (r *Registry) issueAllowed(id, arriving string) error {
	if arriving != "" {
		return ErrMigrating
	}
	r.ownMu.Lock()
	defer r.ownMu.Unlock()
	for _, f := range r.own.fences {
		if f.Contains(id) {
			return ErrMigrating
		}
	}
	for _, d := range r.own.departed {
		if d.contains(id) {
			return ErrMigrating
		}
	}
	return nil
}

// --- record payload codecs -------------------------------------------------

const (
	fenceSet   byte = 1
	fenceClear byte = 0

	cutoverSource byte = 1
	cutoverTarget byte = 2
)

func fencePayload(migID, lo, hi string, mode byte) []byte {
	b := appendString(nil, migID)
	b = appendString(b, lo)
	b = appendString(b, hi)
	return append(b, mode)
}

func (rd *reader) readFence() (migID, lo, hi string, mode byte) {
	migID = rd.str()
	lo = rd.str()
	hi = rd.str()
	mode = rd.u8()
	if rd.err == nil && mode != fenceSet && mode != fenceClear {
		rd.fail("invalid fence mode %d", mode)
	}
	return
}

func cutoverPayload(migID string, epoch uint64, lo, hi string, role byte, redirect string) []byte {
	b := appendString(nil, migID)
	b = appendU64(b, epoch)
	b = appendString(b, lo)
	b = appendString(b, hi)
	b = append(b, role)
	return appendString(b, redirect)
}

func (rd *reader) readCutover() (migID string, epoch uint64, lo, hi string, role byte, redirect string) {
	migID = rd.str()
	epoch = rd.u64()
	lo = rd.str()
	hi = rd.str()
	role = rd.u8()
	redirect = rd.str()
	if rd.err == nil && role != cutoverSource && role != cutoverTarget {
		rd.fail("invalid cutover role %d", role)
	}
	return
}

func migrateInPayload(migID, lo, hi string, entryBlob []byte) []byte {
	b := appendString(nil, migID)
	b = appendString(b, lo)
	b = appendString(b, hi)
	return append(b, entryBlob...)
}

// appendEntryState serializes one entry's full per-chip state — the same
// layout the snapshot body uses per chip.  The caller must hold the entry
// lock or have quiesced the store.
func appendEntryState(b []byte, e *Entry) []byte {
	b = appendString(b, e.id)
	b = appendSelectorState(b, e.selector.ExportState())
	b = appendModel(b, e.model)
	b = appendU32(b, uint32(e.denials))
	if e.locked {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return appendTrackerState(b, e.tracker.Snapshot())
}

// readEntryState decodes one per-chip state blob into a fresh entry owned by
// r.  Returns nil with rd.err set on malformed input.
func (r *Registry) readEntryState(rd *reader) *Entry {
	id := rd.str()
	st := rd.readSelectorState()
	model := rd.readModel()
	denials := int(rd.u32())
	locked := rd.u8() == 1
	trackerState := rd.readTrackerState()
	if rd.err != nil {
		return nil
	}
	sel := r.newSelector(id, model)
	sel.ImportState(st)
	tracker := newTrackerFrom(r, trackerState)
	return &Entry{id: id, reg: r, model: model, selector: sel,
		denials: denials, locked: locked, tracker: tracker}
}

// --- range snapshot (XPR1) -------------------------------------------------

var rangeSnapMagic = [4]byte{'X', 'P', 'R', '1'}

// RangeSnapshot serializes every entry in [lo, hi) at a consistent sequence
// cut: the store is quiesced (opmu.W) for the duration, so no record for the
// range can land between the cut and the returned bytes.  Format:
//
//	magic "XPR1" | cutSeq u64 | count u32 | per-chip state ... | crc32(body)
func (r *Registry) RangeSnapshot(lo, hi string) (data []byte, cutSeq uint64, count int, err error) {
	if r.closed.Load() {
		return nil, 0, 0, ErrClosed
	}
	r.opmu.Lock()
	defer r.opmu.Unlock()
	r.pmu.Lock()
	cutSeq = r.seq
	r.pmu.Unlock()
	body := appendU64(nil, cutSeq)
	// Count first: collect matching entries, then encode.
	var matched []*Entry
	rng := MigRange{Lo: lo, Hi: hi}
	for i := range r.shards {
		for id, e := range r.shards[i].m {
			if rng.Contains(id) {
				matched = append(matched, e)
			}
		}
	}
	body = appendU32(body, uint32(len(matched)))
	for _, e := range matched {
		body = appendEntryState(body, e)
	}
	return sealBlob(rangeSnapMagic, body), cutSeq, len(matched), nil
}

// decodeRangeSnapshot validates an XPR1 blob and materializes its entries
// without installing them.
func (r *Registry) decodeRangeSnapshot(data []byte) ([]*Entry, uint64, error) {
	_, body, err := openBlob(data, "range-snapshot", rangeSnapMagic)
	if err != nil {
		return nil, 0, err
	}
	rd := &reader{b: body}
	cutSeq := rd.u64()
	count := int(rd.u32())
	if rd.err == nil && count > maxUsedWords {
		rd.fail("implausible chip count %d", count)
	}
	var entries []*Entry
	for i := 0; i < count && rd.err == nil; i++ {
		if e := r.readEntryState(rd); e != nil {
			entries = append(entries, e)
		}
	}
	if rd.err != nil {
		return nil, 0, fmt.Errorf("range-snapshot decode: %w", rd.err)
	}
	return entries, cutSeq, nil
}

// --- source-side APIs ------------------------------------------------------

// SetRangeFence opens the handoff window for an outbound migration: it
// quiesces the store, journals the fence, and activates it — so the returned
// sequence number strictly follows every issuance record for the range, and
// no issuance for the range can be journaled after it.  Idempotent per
// migration ID.
func (r *Registry) SetRangeFence(migID, lo, hi string) (uint64, error) {
	if migID == "" {
		return 0, errors.New("registry: fence needs a migration ID")
	}
	if r.closed.Load() {
		return 0, ErrClosed
	}
	r.opmu.Lock()
	defer r.opmu.Unlock()
	r.ownMu.Lock()
	for _, f := range r.own.fences {
		if f.ID == migID {
			r.ownMu.Unlock()
			return r.Seq(), nil
		}
	}
	r.ownMu.Unlock()
	seq, err := r.appendRecordSeq(recRangeFence, fencePayload(migID, lo, hi, fenceSet))
	if err != nil {
		return 0, err
	}
	r.ownMu.Lock()
	r.own.fences = append(r.own.fences, MigRange{ID: migID, Lo: lo, Hi: hi})
	r.ownMu.Unlock()
	return seq, nil
}

// ClearRangeFence closes the handoff window without cutting over (the
// migration failed or was aborted pre-cutover): issuance for the range
// resumes.  Journaled; idempotent.
func (r *Registry) ClearRangeFence(migID string) error {
	if r.closed.Load() {
		return ErrClosed
	}
	r.opmu.RLock()
	defer r.opmu.RUnlock()
	r.ownMu.Lock()
	idx := -1
	var f MigRange
	for i := range r.own.fences {
		if r.own.fences[i].ID == migID {
			idx, f = i, r.own.fences[i]
			break
		}
	}
	r.ownMu.Unlock()
	if idx < 0 {
		return nil
	}
	if err := r.appendRecord(recRangeFence, fencePayload(migID, f.Lo, f.Hi, fenceClear)); err != nil {
		return err
	}
	r.ownMu.Lock()
	r.own.fences = deleteFence(r.own.fences, migID)
	r.ownMu.Unlock()
	return nil
}

func deleteFence(fences []MigRange, migID string) []MigRange {
	out := fences[:0]
	for _, f := range fences {
		if f.ID != migID {
			out = append(out, f)
		}
	}
	return out
}

// CutoverSource finalizes an outbound migration on the source: the cutover
// record is journaled, the range's entries are dropped from the live store,
// the fence lifts, and a durable departed marker with the new owner's
// address takes its place.  The store is quiesced for the swap.  Idempotent:
// a second call for an already-departed range is a no-op.
func (r *Registry) CutoverSource(migID string, epoch uint64, lo, hi, redirect string) error {
	if r.closed.Load() {
		return ErrClosed
	}
	r.opmu.Lock()
	defer r.opmu.Unlock()
	r.ownMu.Lock()
	for _, d := range r.own.departed {
		if d.Lo == lo && d.Hi == hi && d.Epoch >= epoch {
			r.ownMu.Unlock()
			return nil
		}
	}
	r.ownMu.Unlock()
	if _, err := r.appendRecordSeq(recCutover, cutoverPayload(migID, epoch, lo, hi, cutoverSource, redirect)); err != nil {
		return err
	}
	r.applyCutoverSource(migID, epoch, lo, hi, redirect)
	return nil
}

// applyCutoverSource mutates live state for a source-side cutover.  Callers
// hold opmu (either mode) — replay runs single-threaded.
func (r *Registry) applyCutoverSource(migID string, epoch uint64, lo, hi, redirect string) {
	rng := MigRange{Lo: lo, Hi: hi}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for id := range sh.m {
			if rng.Contains(id) {
				delete(sh.m, id)
				chipsGauge.Dec()
			}
		}
		sh.mu.Unlock()
	}
	r.ownMu.Lock()
	r.own.fences = deleteFence(r.own.fences, migID)
	r.own.departed = append(r.own.departed, DepartedRange{Lo: lo, Hi: hi, Epoch: epoch, Redirect: redirect})
	if epoch > r.own.epoch {
		r.own.epoch = epoch
	}
	r.ownMu.Unlock()
}

// --- target-side APIs ------------------------------------------------------

// InstallMigrating installs an XPR1 range snapshot as arriving chips: each
// chip is journaled (recMigrateIn) and placed in the store flagged arriving,
// so it replicates to the target's own followers but refuses issuance until
// cutover.  A restarted migration reinstalls idempotently — the source is
// authoritative for the range until cutover, so overwriting a previous
// partial install is safe.  If any chip in the range is already live here
// (not arriving), the install fails closed: that is dual ownership.
func (r *Registry) InstallMigrating(migID, lo, hi string, data []byte) (int, error) {
	if migID == "" {
		return 0, errors.New("registry: install needs a migration ID")
	}
	if r.closed.Load() {
		return 0, ErrClosed
	}
	entries, _, err := r.decodeRangeSnapshot(data)
	if err != nil {
		return 0, err
	}
	rng := MigRange{Lo: lo, Hi: hi}
	for _, e := range entries {
		if !rng.Contains(e.id) {
			return 0, fmt.Errorf("registry: migrating chip %q outside range [%q,%q)", e.id, lo, hi)
		}
	}
	r.opmu.RLock()
	defer r.opmu.RUnlock()
	if _, done := r.MigrationCutover(migID); done {
		return 0, fmt.Errorf("registry: migration %q already cut over", migID)
	}
	// Dual-owner detection before any mutation: a live (non-arriving) chip
	// in the range means two registries both believe they own it.  Refuse.
	for _, e := range entries {
		if cur := r.Lookup(e.id); cur != nil {
			cur.mu.Lock()
			live := cur.arriving == ""
			cur.mu.Unlock()
			if live {
				return 0, fmt.Errorf("registry: chip %q already live here; refusing dual-owner install", e.id)
			}
		}
	}
	r.ownMu.Lock()
	a := r.own.arrivals[migID]
	if a == nil {
		a = &arrival{lo: lo, hi: hi, chips: make(map[string]struct{})}
		r.own.arrivals[migID] = a
	}
	a.lo, a.hi = lo, hi
	r.ownMu.Unlock()
	installed := 0
	for _, e := range entries {
		e.arriving = migID
		if err := r.appendRecord(recMigrateIn, migrateInPayload(migID, lo, hi, entryBlob(e))); err != nil {
			return installed, err
		}
		r.installArriving(e)
		r.ownMu.Lock()
		a.chips[e.id] = struct{}{}
		r.ownMu.Unlock()
		installed++
	}
	return installed, nil
}

// entryBlob serializes a fresh (not yet installed) entry — no locks needed.
func entryBlob(e *Entry) []byte { return appendEntryState(nil, e) }

// installArriving places (or replaces) an arriving entry in its shard.
func (r *Registry) installArriving(e *Entry) {
	sh := r.shard(e.id)
	sh.mu.Lock()
	if _, had := sh.m[e.id]; !had {
		chipsGauge.Inc()
	}
	sh.m[e.id] = e
	sh.mu.Unlock()
}

// ApplyMigrated applies one live WAL delta shipped from the migration
// source: the record is re-journaled under the target's own sequence (burns
// under the distinct recMigratedBurn type, so the local WAL stays auditable:
// fresh issuance vs migrated copy), then applied to the arriving entry.  The
// returned sequence is the local one; cutover quorum-waits on its high-water
// mark.  Only per-chip record types are accepted, and only for chips inside
// the migration's range.
func (r *Registry) ApplyMigrated(migID string, rectype byte, payload []byte) (uint64, error) {
	if r.closed.Load() {
		return 0, ErrClosed
	}
	r.opmu.RLock()
	defer r.opmu.RUnlock()
	r.ownMu.Lock()
	a := r.own.arrivals[migID]
	r.ownMu.Unlock()
	if a == nil {
		return 0, fmt.Errorf("registry: no arriving migration %q", migID)
	}
	id := RecordChipID(rectype, payload)
	if id == "" {
		return 0, fmt.Errorf("registry: record type %d is not a per-chip migration delta", rectype)
	}
	if !(MigRange{Lo: a.lo, Hi: a.hi}).Contains(id) {
		return 0, fmt.Errorf("registry: delta for chip %q outside migration range", id)
	}
	rd := &reader{b: payload}
	switch rectype {
	case recIssued, recKeyIssued, recMigratedBurn:
		_ = rd.str()
		n := int(rd.u32())
		if rd.err == nil && n > maxUsedWords {
			rd.fail("implausible issued count %d", n)
		}
		if rd.err != nil {
			return 0, fmt.Errorf("issued delta: %w", rd.err)
		}
		words := make([]uint64, n)
		for i := range words {
			words[i] = rd.u64()
		}
		if rd.err != nil {
			return 0, fmt.Errorf("issued delta: %w", rd.err)
		}
		e := r.Lookup(id)
		if e == nil {
			return 0, fmt.Errorf("registry: burn delta for unknown arriving chip %q", id)
		}
		seq, err := r.appendRecordSeq(recMigratedBurn, payload)
		if err != nil {
			return 0, err
		}
		e.mu.Lock()
		e.selector.MarkUsed(words...)
		e.mu.Unlock()
		return seq, nil
	case recRegister:
		_ = rd.str()
		budget := int(rd.u32())
		model := rd.readModel()
		if rd.err != nil {
			return 0, fmt.Errorf("register delta: %w", rd.err)
		}
		sel := r.newSelector(id, model)
		sel.SetBudget(budget)
		e := &Entry{id: id, reg: r, model: model, selector: sel,
			tracker: health.NewTracker(r.opts.Health), arriving: migID}
		seq, err := r.appendRecordSeq(recMigrateIn, migrateInPayload(migID, a.lo, a.hi, entryBlob(e)))
		if err != nil {
			return 0, err
		}
		r.installArriving(e)
		r.ownMu.Lock()
		a.chips[id] = struct{}{}
		r.ownMu.Unlock()
		return seq, nil
	case recReenroll:
		_ = rd.str()
		budget := int(rd.u32())
		model := rd.readModel()
		if rd.err != nil {
			return 0, fmt.Errorf("reenroll delta: %w", rd.err)
		}
		seq, err := r.appendRecordSeq(recReenroll, payload)
		if err != nil {
			return 0, err
		}
		if e := r.Lookup(id); e != nil {
			sel := r.newSelector(id, model)
			sel.SetBudget(budget)
			e.mu.Lock()
			sel.MarkUsed(e.selector.ExportState().Used...)
			e.model, e.selector = model, sel
			e.denials, e.locked = 0, false
			e.tracker.Reset()
			e.mu.Unlock()
		}
		return seq, nil
	case recAbuse:
		_ = rd.str()
		denials := int(rd.u32())
		locked := rd.u8() == 1
		if rd.err != nil {
			return 0, fmt.Errorf("abuse delta: %w", rd.err)
		}
		seq, err := r.appendRecordSeq(recAbuse, payload)
		if err != nil {
			return 0, err
		}
		if e := r.Lookup(id); e != nil {
			e.mu.Lock()
			e.denials, e.locked = denials, locked
			e.mu.Unlock()
		}
		return seq, nil
	case recHealth:
		_ = rd.str()
		st := rd.readTrackerState()
		if rd.err != nil {
			return 0, fmt.Errorf("health delta: %w", rd.err)
		}
		seq, err := r.appendRecordSeq(recHealth, payload)
		if err != nil {
			return 0, err
		}
		if e := r.Lookup(id); e != nil {
			e.mu.Lock()
			e.tracker.Restore(st)
			e.mu.Unlock()
		}
		return seq, nil
	case recDeregister:
		if rd.str(); rd.err != nil {
			return 0, fmt.Errorf("deregister delta: %w", rd.err)
		}
		seq, err := r.appendRecordSeq(recDeregister, payload)
		if err != nil {
			return 0, err
		}
		sh := r.shard(id)
		sh.mu.Lock()
		if _, ok := sh.m[id]; ok {
			delete(sh.m, id)
			chipsGauge.Dec()
		}
		sh.mu.Unlock()
		r.ownMu.Lock()
		delete(a.chips, id)
		r.ownMu.Unlock()
		return seq, nil
	}
	return 0, fmt.Errorf("registry: record type %d cannot be migrated", rectype)
}

// CutoverTarget makes an inbound migration's arriving chips live: the
// cutover record is journaled (and replicates to the target's followers),
// every arriving entry's flag clears, the epoch advances, and any departed
// marker the range previously carried here (a range migrating back) is
// dropped.  Returns the cutover record's local sequence so the caller can
// quorum-wait on it before acknowledging the source.  Idempotent.
func (r *Registry) CutoverTarget(migID string, epoch uint64) (uint64, error) {
	if r.closed.Load() {
		return 0, ErrClosed
	}
	r.opmu.RLock()
	defer r.opmu.RUnlock()
	if _, done := r.MigrationCutover(migID); done {
		return r.Seq(), nil
	}
	r.ownMu.Lock()
	a := r.own.arrivals[migID]
	r.ownMu.Unlock()
	if a == nil {
		return 0, fmt.Errorf("registry: no arriving migration %q to cut over", migID)
	}
	seq, err := r.appendRecordSeq(recCutover, cutoverPayload(migID, epoch, a.lo, a.hi, cutoverTarget, ""))
	if err != nil {
		return 0, err
	}
	r.applyCutoverTarget(migID, epoch, a.lo, a.hi)
	return seq, nil
}

// applyCutoverTarget mutates live state for a target-side cutover.
func (r *Registry) applyCutoverTarget(migID string, epoch uint64, lo, hi string) {
	r.ownMu.Lock()
	a := r.own.arrivals[migID]
	delete(r.own.arrivals, migID)
	r.own.completed[migID] = epoch
	if epoch > r.own.epoch {
		r.own.epoch = epoch
	}
	kept := r.own.departed[:0]
	for _, d := range r.own.departed {
		if !(MigRange{Lo: d.Lo, Hi: d.Hi}).overlaps(lo, hi) {
			kept = append(kept, d)
		}
	}
	r.own.departed = kept
	r.ownMu.Unlock()
	if a == nil {
		return
	}
	for id := range a.chips {
		if e := r.Lookup(id); e != nil {
			e.mu.Lock()
			if e.arriving == migID {
				e.arriving = ""
			}
			e.mu.Unlock()
		}
	}
}

// AbortMigrationIn drops an inbound migration's arriving chips (journaled).
// Only valid before cutover; after cutover the chips are live and the
// source must finalize instead.
func (r *Registry) AbortMigrationIn(migID string) error {
	if r.closed.Load() {
		return ErrClosed
	}
	r.opmu.RLock()
	defer r.opmu.RUnlock()
	if _, done := r.MigrationCutover(migID); done {
		return fmt.Errorf("registry: migration %q already cut over; cannot abort", migID)
	}
	r.ownMu.Lock()
	a := r.own.arrivals[migID]
	r.ownMu.Unlock()
	if a == nil {
		return nil
	}
	if err := r.appendRecord(recMigrateAbort, appendString(nil, migID)); err != nil {
		return err
	}
	r.applyMigrateAbort(migID)
	return nil
}

// applyMigrateAbort drops all arriving entries for migID.
func (r *Registry) applyMigrateAbort(migID string) {
	r.ownMu.Lock()
	a := r.own.arrivals[migID]
	delete(r.own.arrivals, migID)
	r.ownMu.Unlock()
	if a == nil {
		return
	}
	for id := range a.chips {
		sh := r.shard(id)
		sh.mu.Lock()
		if e, ok := sh.m[id]; ok && e.arriving == migID {
			delete(sh.m, id)
			chipsGauge.Dec()
		}
		sh.mu.Unlock()
	}
}

// --- WAL tooling -----------------------------------------------------------

// RecordChipID returns the chip ID a per-chip WAL record pertains to, or ""
// for record types that are not chip-scoped (fences, cutovers, aborts) or a
// malformed payload.  This is how range-scoped shipping filters the live
// delta without the shipping layer knowing payload layouts.
func RecordChipID(typ byte, payload []byte) string {
	switch typ {
	case recRegister, recIssued, recAbuse, recDeregister, recHealth,
		recReenroll, recKeyIssued, recMigratedBurn:
		rd := &reader{b: payload}
		id := rd.str()
		if rd.err != nil {
			return ""
		}
		return id
	}
	return ""
}

// RecordIssuedWords decodes the challenge words a WAL record burned.  fresh
// is true for records representing challenges that left THIS server
// (recIssued, recKeyIssued) and false for migrated copies (recMigratedBurn),
// which an audit must count once — at the server that issued them — not
// twice.  ok is false for non-burn records.
func RecordIssuedWords(typ byte, payload []byte) (id string, words []uint64, fresh, ok bool) {
	switch typ {
	case recIssued, recKeyIssued:
		fresh = true
	case recMigratedBurn:
	default:
		return "", nil, false, false
	}
	rd := &reader{b: payload}
	id = rd.str()
	n := int(rd.u32())
	if rd.err != nil || n > maxUsedWords {
		return "", nil, false, false
	}
	words = make([]uint64, n)
	for i := range words {
		words[i] = rd.u64()
	}
	if rd.err != nil {
		return "", nil, false, false
	}
	return id, words, fresh, true
}

// IterateWAL streams every intact record of a WAL file to fn in order,
// stopping at the first torn or corrupt record (the same tolerance recovery
// applies) or when fn returns an error.  Offline tooling — the never-reuse
// audit — reads journals this way without opening a registry.
func IterateWAL(path string, fn func(seq uint64, typ byte, payload []byte) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	_, err = walkWAL(data, fn)
	return err
}
