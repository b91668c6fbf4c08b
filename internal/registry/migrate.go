// Migration surface: the registry-side state machine that lets a chip range
// move between shard owners without ever weakening the paper's never-reuse
// rule (Fig 7).  The rebalance engine (internal/registry/rebalance) drives
// these APIs; everything here is journaled through the same WAL as normal
// mutations, so ownership — like the burned-challenge history — survives
// kill -9 on either side of a migration.  Migration records are decoded and
// applied by the same decodeRecord and apply as every other record
// (record.go); ApplyMigrated adds only what is specific to a migration
// target: the arrival and range checks and the rewrite of a source's delta
// into the target's own record.
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
)

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

// decodeRangeSnapshot validates an XPR1 blob and decodes its chips' states.
func decodeRangeSnapshot(data []byte) ([]record, error) {
	_, body, err := openBlob(data, "range-snapshot", rangeSnapMagic)
	if err != nil {
		return nil, err
	}
	rd := &reader{b: body}
	rd.u64() // the source's cut sequence
	count := int(rd.u32())
	if rd.err == nil && count > maxUsedWords {
		rd.fail("implausible chip count %d", count)
	}
	var recs []record
	for i := 0; i < count && rd.err == nil; i++ {
		var rec record
		rd.readEntry(&rec, true)
		recs = append(recs, rec)
	}
	if rd.err != nil {
		return nil, fmt.Errorf("range-snapshot decode: %w", rd.err)
	}
	return recs, nil
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
	rec := record{typ: recRangeFence, mig: migID, lo: lo, hi: hi, mode: fenceSet}
	return r.commit(rec, fencePayload(rec))
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
	rec := record{typ: recRangeFence, mig: migID, mode: fenceClear}
	found := false
	for _, f := range r.own.fences {
		if f.ID == migID {
			rec.lo, rec.hi, found = f.Lo, f.Hi, true
			break
		}
	}
	r.ownMu.Unlock()
	if !found {
		return nil
	}
	_, err := r.commit(rec, fencePayload(rec))
	return err
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
	rec := record{typ: recCutover, mig: migID, epoch: epoch, lo: lo, hi: hi,
		mode: cutoverSource, redirect: redirect}
	_, err := r.commit(rec, cutoverPayload(rec))
	return err
}

// --- target-side APIs ------------------------------------------------------

// InstallMigrating installs an XPR1 range snapshot as arriving chips: each
// chip is journaled (recMigrateIn) and placed in the store flagged arriving,
// so it replicates to the target's own followers but refuses issuance until
// cutover; a snapshot with no chip journals the range alone
// (recMigrateRange), so the arrival exists wherever the WAL is replayed.
// A restarted migration reinstalls idempotently — the source is
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
	recs, err := decodeRangeSnapshot(data)
	if err != nil {
		return 0, err
	}
	rng := MigRange{Lo: lo, Hi: hi}
	for _, rec := range recs {
		if !rng.Contains(rec.id) {
			return 0, fmt.Errorf("registry: migrating chip %q outside range [%q,%q)", rec.id, lo, hi)
		}
	}
	r.opmu.RLock()
	defer r.opmu.RUnlock()
	if _, done := r.MigrationCutover(migID); done {
		return 0, fmt.Errorf("registry: migration %q already cut over", migID)
	}
	// Dual-owner detection before any mutation: a live (non-arriving) chip
	// in the range means two registries both believe they own it.  Refuse.
	for _, rec := range recs {
		if cur := r.Lookup(rec.id); cur != nil && cur.arrivingIn() == "" {
			return 0, fmt.Errorf("registry: chip %q already live here; refusing dual-owner install", rec.id)
		}
	}
	if len(recs) == 0 {
		// No chip record will carry the range, so journal it alone: a
		// replay must open the same arrival for the cutover to find.
		rec := record{typ: recMigrateRange, mig: migID, lo: lo, hi: hi}
		_, err := r.commit(rec, migrateRangePayload(rec))
		return 0, err
	}
	// Each chip's record opens (or re-ranges) the arrival as it applies.
	for i, rec := range recs {
		rec.typ, rec.mig, rec.lo, rec.hi = recMigrateIn, migID, lo, hi
		if _, err := r.commit(rec, migrateInPayload(rec)); err != nil {
			return i, err
		}
	}
	return len(recs), nil
}

// arrivalLocked returns migID's arrival, creating it, and sets its range
// (ownMu held).
func (r *Registry) arrivalLocked(migID, lo, hi string) *arrival {
	a := r.own.arrivals[migID]
	if a == nil {
		a = &arrival{chips: make(map[string]struct{})}
		r.own.arrivals[migID] = a
	}
	a.lo, a.hi = lo, hi
	return a
}

// ApplyMigrated applies one live WAL delta shipped from the migration
// source.  Only per-chip records for chips inside the migration's range are
// accepted.  The delta is rewritten to the target's own record — burns to
// recMigratedBurn, so the local WAL stays auditable (fresh issuance vs
// migrated copy), and a registration to recMigrateIn with the chip's whole
// state, so it arrives like a snapshot chip — then journaled under the
// target's own sequence and applied.  A burn or a re-enrollment whose chip
// is not arriving in this migration is refused with nothing journaled.  The
// returned sequence is the local one; cutover quorum-waits on its
// high-water mark.
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
	if !chipScoped(rectype) {
		return 0, fmt.Errorf("registry: record type %d is not a per-chip migration delta", rectype)
	}
	rec, err := decodeRecord(rectype, payload)
	if err != nil {
		return 0, err
	}
	if !(MigRange{Lo: a.lo, Hi: a.hi}).Contains(rec.id) {
		return 0, fmt.Errorf("registry: delta for chip %q outside migration range", rec.id)
	}
	switch rectype {
	case recIssued, recKeyIssued, recMigratedBurn, recReenroll:
		if e := r.Lookup(rec.id); e == nil || e.arrivingIn() != migID {
			return 0, fmt.Errorf("registry: delta for chip %q, which is not arriving in migration %q", rec.id, migID)
		}
		if rectype != recReenroll {
			rec.typ = recMigratedBurn
		}
	case recRegister:
		rec.typ, rec.mig, rec.lo, rec.hi = recMigrateIn, migID, a.lo, a.hi
		payload = migrateInPayload(rec)
	}
	return r.commit(rec, payload)
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
	rec := record{typ: recCutover, mig: migID, epoch: epoch, lo: a.lo, hi: a.hi, mode: cutoverTarget}
	return r.commit(rec, cutoverPayload(rec))
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
	_, err := r.commit(record{typ: recMigrateAbort, mig: migID}, appendString(nil, migID))
	return err
}
