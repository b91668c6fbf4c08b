// Replication surface: the hooks a WAL-shipping layer (internal/registry/repl)
// uses to turn one registry into a primary and another into a follower.
//
// Primary side: AddAppendObserver taps every durably journaled record, in
// exact sequence order, as the shipping source; SetCommitWaiter lets the
// issuance path (Entry.Issue) block until the configured follower quorum has
// acknowledged the recIssued record, so a challenge never leaves the server
// before the burn is replicated.
//
// Follower side: ApplyReplicated decodes a record from the primary, journals
// it at the primary's sequence number — refusing gaps, so the log can degrade
// but never fork — and then applies it through the same decode and apply
// that crash recovery uses (record.go), so a follower rebuilds exactly the
// state its primary holds.  InstallSnapshot bootstraps a new or lagging
// follower from a full XPS3 snapshot.  A follower registry must not take
// local mutations while it is replicating; promotion simply stops feeding
// ApplyReplicated and starts serving, since the store is already a
// sequence-exact copy.
package registry

import (
	"context"
	"errors"
	"fmt"
)

// ErrSeqGap is returned by ApplyReplicated when a record does not directly
// extend the local log.  It is terminal for a replication link: applying it
// would fork the log, so the follower must drop the link and re-bootstrap.
var ErrSeqGap = errors.New("registry: replicated record out of sequence")

// AppendObserver sees every record after it is durably appended, under the
// registry's journal lock (exact seq order, no concurrent calls).  It must
// return quickly and must copy payload if it retains it.
type AppendObserver func(seq uint64, typ byte, payload []byte)

// CommitWaiter gates challenge issuance on replication: Entry.Issue calls it
// with the recIssued record's sequence number and refuses to release the
// challenges unless it returns nil.  ctx carries request-scoped observability
// state — a distributed-trace context injected by IssueCtx travels through
// here so the replication layer can record the quorum wait as a child span —
// and is never used for cancellation: the burn is already journaled, so the
// wait must run to its own verdict.
type CommitWaiter func(ctx context.Context, seq uint64) error

// AddAppendObserver registers an append observer — the tap a replication
// primary ships the log from, and a migration source tails its range's live
// WAL from while the primary keeps shipping.  The returned function removes
// it (calling it again is a no-op).  Observers run one at a time under the
// journal lock, in registration order, and none relies on running before
// another; each must be fast and copy any payload it retains.
func (r *Registry) AddAppendObserver(fn AppendObserver) (remove func()) {
	tap := &fn
	r.editObservers(func(list []*AppendObserver) []*AppendObserver { return append(list, tap) })
	return func() {
		r.editObservers(func(list []*AppendObserver) []*AppendObserver {
			for i, t := range list {
				if t == tap {
					return append(list[:i], list[i+1:]...)
				}
			}
			return list
		})
	}
}

// editObservers republishes the copy-on-write observer list: edit gets a
// private copy of the current list and returns the new one.
func (r *Registry) editObservers(edit func([]*AppendObserver) []*AppendObserver) {
	r.obsMu.Lock()
	defer r.obsMu.Unlock()
	var list []*AppendObserver
	if cur := r.appendObs.Load(); cur != nil {
		list = append(list, *cur...)
	}
	if list = edit(list); len(list) == 0 {
		r.appendObs.Store(nil)
		return
	}
	r.appendObs.Store(&list)
}

// SetCommitWaiter attaches (or, with nil, detaches) the issuance commit
// waiter.
func (r *Registry) SetCommitWaiter(fn CommitWaiter) {
	if fn == nil {
		r.commitWait.Store(nil)
		return
	}
	r.commitWait.Store(&fn)
}

func (r *Registry) waitCommitted(ctx context.Context, seq uint64) error {
	if w := r.commitWait.Load(); w != nil {
		return (*w)(ctx, seq)
	}
	return nil
}

// WaitCommitted blocks until the attached commit waiter (the replication
// quorum) acknowledges seq, or returns immediately when no waiter is
// attached.  The migration acceptor gates its cutover acknowledgement on
// this, so an ownership transfer is quorum-safe on the target before the
// source drops the range.
func (r *Registry) WaitCommitted(seq uint64) error {
	return r.waitCommitted(context.Background(), seq)
}

// Seq returns the sequence number of the last record in the local log.
func (r *Registry) Seq() uint64 {
	r.pmu.Lock()
	defer r.pmu.Unlock()
	return r.seq
}

// ApplyReplicated applies one record shipped from a replication primary.
// The record is validated first, then journaled locally at the primary's
// sequence number, then applied to the live store — so an error at any step
// means the record took no effect and the caller must NOT acknowledge it.
//
// seq must directly extend the local log (Seq()+1); anything else returns
// ErrSeqGap, which is terminal for the link.  A WAL append or fsync failure
// is likewise returned as a structured error with nothing applied.
func (r *Registry) ApplyReplicated(seq uint64, typ byte, payload []byte) error {
	if r.closed.Load() {
		return ErrClosed
	}
	r.opmu.RLock()
	defer r.opmu.RUnlock()
	// Decoding before journaling keeps a malformed record out of the log.
	rec, err := decodeRecord(typ, payload)
	if err != nil {
		return err
	}
	if err := r.journalReplicated(seq, typ, payload); err != nil {
		return err
	}
	r.apply(rec)
	return nil
}

// journalReplicated appends one record at an explicit (primary-assigned)
// sequence number, enforcing continuity.  Caller holds opmu.R.
func (r *Registry) journalReplicated(seq uint64, typ byte, payload []byte) error {
	r.pmu.Lock()
	if r.wal == nil && r.dir != "" {
		r.pmu.Unlock()
		return ErrClosed
	}
	if seq != r.seq+1 {
		want := r.seq + 1
		r.pmu.Unlock()
		return fmt.Errorf("%w: got seq %d, want %d", ErrSeqGap, seq, want)
	}
	needCompact, err := r.appendLocked(seq, typ, payload)
	if err == nil {
		r.seq = seq
	}
	r.pmu.Unlock()
	r.maybeCompactAsync(needCompact)
	return err
}

// SnapshotBytes returns a full XPS2-framed snapshot of the store and the
// sequence cut it reflects: every record with seq ≤ the cut is included, so a
// follower that installs it need only tail records after the cut.  The store
// is quiesced (opmu.W) for the duration, exactly like Compact.
func (r *Registry) SnapshotBytes() ([]byte, uint64, error) {
	if r.closed.Load() {
		return nil, 0, ErrClosed
	}
	r.opmu.Lock()
	defer r.opmu.Unlock()
	r.pmu.Lock()
	defer r.pmu.Unlock()
	return sealBlob(snapMagic, r.snapshotBodyLocked()), r.seq, nil
}

// InstallSnapshot replaces the entire store with the contents of an
// XPS2-framed snapshot (as produced by SnapshotBytes) — the follower
// bootstrap path.  The snapshot is fully validated before any live state is
// touched.  On a persistent registry the snapshot is also written to disk
// and the WAL reset, so a follower that crashes right after install recovers
// at the snapshot cut instead of an older local state.
func (r *Registry) InstallSnapshot(data []byte) error {
	if r.closed.Load() {
		return ErrClosed
	}
	entries, own, seq, err := r.decodeSnapshot(data)
	if err != nil {
		return err
	}
	r.opmu.Lock()
	defer r.opmu.Unlock()
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for id := range sh.m {
			delete(sh.m, id)
			chipsGauge.Dec()
		}
		sh.mu.Unlock()
	}
	for _, e := range entries {
		r.install(e)
	}
	r.ownMu.Lock()
	r.own = own
	r.ownMu.Unlock()
	r.pmu.Lock()
	defer r.pmu.Unlock()
	r.seq = seq
	if r.wal == nil {
		return nil
	}
	if err := r.writeSnapshotFile(data); err != nil {
		return err
	}
	return r.resetWALLocked()
}
