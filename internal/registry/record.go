// Journal records: what each WAL record carries and what it does.  Every
// registry mutation is journaled as one typed record (the framing is in
// wal.go), its payload encoded where it is journaled, mostly by the encoders
// below.  decodeRecord is the only code that parses a payload, and
// (*Registry).apply is the only code that changes the store or the
// ownership state from a record.  Crash recovery, a replication follower
// and a migration target all replay records through that one decode and
// that one apply, so a burned challenge means the same thing wherever its
// record is replayed, and a replay rebuilds the state the live registry
// holds.
package registry

import (
	"fmt"

	"xorpuf/internal/core"
	"xorpuf/internal/health"
)

const (
	recRegister   byte = 1
	recIssued     byte = 2
	recAbuse      byte = 3
	recDeregister byte = 4
	recHealth     byte = 5
	recReenroll   byte = 6
	// recKeyIssued burns challenges issued for key derivation.  The payload
	// and replay semantics are identical to recIssued — one never-reuse
	// budget covers both workloads (chosen-challenge attacks do not care why
	// a challenge left the server) — but the distinct type keeps the journal
	// auditable by workload.
	recKeyIssued byte = 7

	// Migration record types (see migrate.go).  recRangeFence opens/closes
	// an outbound handoff window; recMigrateIn installs one arriving chip on
	// the target; recCutover is the two-phase ownership transfer journaled on
	// both sides; recMigrateAbort drops an inbound migration's arriving
	// chips.  recMigratedBurn is how the target re-journals a source's
	// recIssued/recKeyIssued delta under its own sequence: the burn semantics
	// are identical, but the distinct type keeps the WAL auditable — a
	// never-reuse audit counts fresh issuance once, at the server that
	// issued it, and recognizes migrated copies as copies.
	recRangeFence   byte = 8
	recMigrateIn    byte = 9
	recCutover      byte = 10
	recMigrateAbort byte = 11
	recMigratedBurn byte = 12
	// recMigrateRange opens an inbound migration's arrival for a range
	// whose snapshot holds no chip, so no recMigrateIn carries the range.
	recMigrateRange byte = 13

	fenceSet   byte = 1
	fenceClear byte = 0

	cutoverSource byte = 1
	cutoverTarget byte = 2
)

// record is one decoded journal record.  The fields each type uses:
//
//	register, reenroll      id, budget, model
//	issued, key-issued,
//	migrated-burn           id, words (the burned challenges)
//	abuse                   id, denials, locked
//	health                  id, health
//	deregister              id
//	migrate-in              mig, lo, hi, and the arriving chip's whole
//	                        state: id, budget, words (its used set), model,
//	                        denials, locked, health
//	fence                   mig, lo, hi, mode (fenceSet or fenceClear)
//	cutover                 mig, epoch, lo, hi, mode (the role), redirect
//	migrate-abort           mig
//	migrate-range           mig, lo, hi
type record struct {
	typ      byte
	id       string
	budget   int
	model    *core.ChipModel
	words    []uint64
	denials  int
	locked   bool
	health   health.TrackerState
	mig      string
	lo, hi   string
	mode     byte
	epoch    uint64
	redirect string
}

// chipScoped reports whether records of type typ change one chip's own
// state: the records a migration source ships for its range.
func chipScoped(typ byte) bool {
	switch typ {
	case recRegister, recIssued, recAbuse, recDeregister, recHealth,
		recReenroll, recKeyIssued, recMigratedBurn:
		return true
	}
	return false
}

// decodeRecord validates one record payload into a record value.
func decodeRecord(typ byte, payload []byte) (record, error) {
	rec := record{typ: typ}
	rd := reader{b: payload}
	switch typ {
	case recRegister, recReenroll:
		rec.id = rd.str()
		rec.budget = int(rd.u32())
		rec.model = rd.readModel()
	case recIssued, recKeyIssued, recMigratedBurn:
		rec.id = rd.str()
		rec.words = rd.readWords()
	case recAbuse:
		rec.id = rd.str()
		rec.denials = int(rd.u32())
		rec.locked = rd.u8() == 1
	case recDeregister:
		rec.id = rd.str()
	case recHealth:
		rec.id = rd.str()
		rec.health = rd.readTrackerState()
	case recMigrateIn:
		rec.mig, rec.lo, rec.hi = rd.str(), rd.str(), rd.str()
		rd.readEntry(&rec, true)
	case recRangeFence:
		rec.mig, rec.lo, rec.hi, rec.mode = rd.str(), rd.str(), rd.str(), rd.u8()
		if rd.err == nil && rec.mode != fenceSet && rec.mode != fenceClear {
			rd.fail("invalid fence mode %d", rec.mode)
		}
	case recCutover:
		rec.mig, rec.epoch, rec.lo, rec.hi = rd.str(), rd.u64(), rd.str(), rd.str()
		rec.mode, rec.redirect = rd.u8(), rd.str()
		if rd.err == nil && rec.mode != cutoverSource && rec.mode != cutoverTarget {
			rd.fail("invalid cutover role %d", rec.mode)
		}
	case recMigrateAbort:
		rec.mig = rd.str()
	case recMigrateRange:
		rec.mig, rec.lo, rec.hi = rd.str(), rd.str(), rd.str()
	default:
		return rec, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, typ)
	}
	if rd.err != nil {
		return rec, fmt.Errorf("record type %d: %w", typ, rd.err)
	}
	return rec, nil
}

// apply makes one decoded record take effect.  Recovery, a replication
// follower and a migration target call it after reading or journaling the
// record, and live mutations whose effect is exactly their record's (fences,
// cutovers, aborts, arrivals) call it after journaling.  It takes shard,
// entry and ownMu locks in the documented order, never two at once; callers
// hold opmu (either mode), or run single-threaded in recovery.
func (r *Registry) apply(rec record) {
	switch rec.typ {
	case recRegister:
		// A duplicate registration was refused live and journaled nothing,
		// so a register record for a held chip is one a snapshot covers.
		if r.Lookup(rec.id) == nil {
			r.install(r.newEntry(rec))
		}
	case recIssued, recKeyIssued, recMigratedBurn, recAbuse, recHealth, recReenroll:
		// A record for a chip the store no longer holds was journaled
		// through an Entry looked up before the chip was dropped; it changed
		// nothing in the store then either.
		e := r.Lookup(rec.id)
		if e == nil {
			return
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		switch rec.typ {
		case recAbuse:
			e.denials, e.locked = rec.denials, rec.locked
		case recHealth:
			e.tracker.Restore(rec.health)
		case recReenroll:
			e.reenroll(rec.model, rec.budget)
		default:
			e.selector.MarkUsed(rec.words...)
		}
	case recDeregister:
		r.drop(rec.id)
	case recMigrateIn:
		e := r.newEntry(rec)
		e.arriving = rec.mig
		r.install(e)
		r.ownMu.Lock()
		r.arrivalLocked(rec.mig, rec.lo, rec.hi).chips[rec.id] = struct{}{}
		r.ownMu.Unlock()
	case recMigrateRange:
		r.ownMu.Lock()
		r.arrivalLocked(rec.mig, rec.lo, rec.hi)
		r.ownMu.Unlock()
	case recRangeFence:
		r.ownMu.Lock()
		r.own.fences = deleteFence(r.own.fences, rec.mig)
		if rec.mode == fenceSet {
			r.own.fences = append(r.own.fences, MigRange{ID: rec.mig, Lo: rec.lo, Hi: rec.hi})
		}
		r.ownMu.Unlock()
	case recCutover:
		if rec.mode == cutoverSource {
			// The range leaves: its entries drop, its fence lifts, and a
			// departed marker names the new owner.
			rng := MigRange{Lo: rec.lo, Hi: rec.hi}
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
			r.own.fences = deleteFence(r.own.fences, rec.mig)
			r.own.departed = append(r.own.departed,
				DepartedRange{Lo: rec.lo, Hi: rec.hi, Epoch: rec.epoch, Redirect: rec.redirect})
			r.own.epoch = max(r.own.epoch, rec.epoch)
			r.ownMu.Unlock()
			return
		}
		// The range arrives: the migration completes, any departed marker
		// the range carried here (a range migrating back) goes, and the
		// arriving chips go live.
		r.ownMu.Lock()
		a := r.own.arrivals[rec.mig]
		delete(r.own.arrivals, rec.mig)
		r.own.completed[rec.mig] = rec.epoch
		r.own.epoch = max(r.own.epoch, rec.epoch)
		kept := r.own.departed[:0]
		for _, d := range r.own.departed {
			if !(MigRange{Lo: d.Lo, Hi: d.Hi}).overlaps(rec.lo, rec.hi) {
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
				if e.arriving == rec.mig {
					e.arriving = ""
				}
				e.mu.Unlock()
			}
		}
	case recMigrateAbort:
		r.ownMu.Lock()
		a := r.own.arrivals[rec.mig]
		delete(r.own.arrivals, rec.mig)
		r.ownMu.Unlock()
		if a == nil {
			return
		}
		for id := range a.chips {
			sh := r.shard(id)
			sh.mu.Lock()
			if e, ok := sh.m[id]; ok && e.arriving == rec.mig {
				delete(sh.m, id)
				chipsGauge.Dec()
			}
			sh.mu.Unlock()
		}
	}
}

// commit journals rec, whose encoding is payload, and then applies it, so
// an append failure leaves no effect.  It returns the record's sequence.
func (r *Registry) commit(rec record, payload []byte) (uint64, error) {
	seq, err := r.appendRecordSeq(rec.typ, payload)
	if err != nil {
		return 0, err
	}
	r.apply(rec)
	return seq, nil
}

// --- payload encoders ------------------------------------------------------

func registerPayload(id string, budget int, model *core.ChipModel) []byte {
	b := appendString(nil, id)
	b = appendU32(b, uint32(budget))
	return appendModel(b, model)
}

func healthPayload(id string, st health.TrackerState) []byte {
	return appendTrackerState(appendString(nil, id), st)
}

func abusePayload(id string, denials int, locked bool) []byte {
	return appendAbuse(appendString(nil, id), denials, locked)
}

func fencePayload(rec record) []byte {
	return append(migrateRangePayload(rec), rec.mode)
}

func migrateRangePayload(rec record) []byte {
	b := appendString(nil, rec.mig)
	b = appendString(b, rec.lo)
	return appendString(b, rec.hi)
}

func cutoverPayload(rec record) []byte {
	b := appendString(nil, rec.mig)
	b = appendU64(b, rec.epoch)
	b = appendString(b, rec.lo)
	b = appendString(b, rec.hi)
	b = append(b, rec.mode)
	return appendString(b, rec.redirect)
}

func migrateInPayload(rec record) []byte {
	return appendEntry(migrateRangePayload(rec), rec)
}

// --- WAL tooling -----------------------------------------------------------

// RecordChipID returns the chip ID a per-chip WAL record pertains to, or ""
// for record types that are not chip-scoped (fences, cutovers, aborts) or a
// malformed payload.  This is how range-scoped shipping filters the live
// delta without the shipping layer knowing payload layouts.
func RecordChipID(typ byte, payload []byte) string {
	if !chipScoped(typ) {
		return ""
	}
	rec, err := decodeRecord(typ, payload)
	if err != nil {
		return ""
	}
	return rec.id
}

// RecordIssuedWords decodes the challenge words a WAL record burned.  fresh
// is true for records representing challenges that left THIS server
// (recIssued, recKeyIssued) and false for migrated copies (recMigratedBurn),
// which an audit must count once — at the server that issued them — not
// twice.  ok is false for non-burn records.
func RecordIssuedWords(typ byte, payload []byte) (id string, words []uint64, fresh, ok bool) {
	switch typ {
	case recIssued, recKeyIssued, recMigratedBurn:
	default:
		return "", nil, false, false
	}
	rec, err := decodeRecord(typ, payload)
	if err != nil {
		return "", nil, false, false
	}
	return rec.id, rec.words, typ != recMigratedBurn, true
}
