// Durability layer: an append-only write-ahead log of registry mutations
// plus periodically compacted snapshots, both in the codec.go binary
// format family.
//
// WAL file ("registry.wal"):
//
//	magic   [4]byte  "XPW1"
//	records, each:
//	  seq     uint64   strictly increasing across the registry's lifetime
//	  type    uint8    rec* constant
//	  len     uint32   payload byte count
//	  payload len bytes
//	  crc     uint32   IEEE CRC32 over seq..payload
//
// Snapshot file ("registry.snap"):
//
//	magic   [4]byte  "XPS3"
//	body:
//	  seq     uint64   every WAL record with seq ≤ this is reflected here
//	  count   uint32   number of chips
//	  per chip: id, budgeted selector state, model, denials, locked,
//	            health tracker state (XPS2+)
//	  ownership tail (XPS3 only): epoch, active fences, departed ranges,
//	            in-flight arrivals with chip sets, completed migration IDs
//	crc     uint32   IEEE CRC32 over body
//
// Read compatibility runs two versions back: snapshots written by
// pre-migration builds ("XPS2") load with empty ownership state, and
// pre-health builds ("XPS1", no tracker state) additionally recover their
// chips as healthy with pristine detectors; any recHealth records in the
// WAL tail re-apply whatever classification the old process had journaled
// after its last compaction.
//
// Recovery loads the snapshot (if any), then replays WAL records with
// seq > snapshot seq.  Compaction writes the snapshot to a temp file,
// fsyncs, renames it into place, and only then truncates the WAL; a crash
// anywhere in that window leaves records whose seq the snapshot already
// covers, which replay skips.  A torn final record (crash mid-append) is
// detected by length/CRC and truncated away so the log can be appended to
// again.
package registry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"xorpuf/internal/health"
	"xorpuf/internal/telemetry"
)

// Durability-path instruments, captured once from the Default registry.
// They are process-wide (all Registry instances feed the same series): the
// WAL and snapshot latencies being watched are properties of the storage
// stack underneath the process, not of one registry.
var (
	walAppendSeconds  = telemetry.Default.Histogram("registry_wal_append_seconds", telemetry.LatencyBuckets)
	walFsyncSeconds   = telemetry.Default.Histogram("registry_wal_fsync_seconds", telemetry.LatencyBuckets)
	walRecordsTotal   = telemetry.Default.Counter("registry_wal_records_total")
	walBytesTotal     = telemetry.Default.Counter("registry_wal_bytes_total")
	compactionSeconds = telemetry.Default.Histogram("registry_compaction_seconds", telemetry.LatencyBuckets)
	shardContention   = telemetry.Default.Counter("registry_shard_contention_total")
	chipsGauge        = telemetry.Default.Gauge("registry_chips")
)

var (
	walMagic    = [4]byte{'X', 'P', 'W', '1'}
	snapMagic   = [4]byte{'X', 'P', 'S', '3'}
	snapMagicV2 = [4]byte{'X', 'P', 'S', '2'}
	snapMagicV1 = [4]byte{'X', 'P', 'S', '1'}
)

const (
	walName  = "registry.wal"
	snapName = "registry.snap"

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

	// recHeaderLen is seq(8) + type(1) + len(4); recTrailerLen the crc.
	recHeaderLen  = 13
	recTrailerLen = 4

	// maxRecordPayload bounds one record so a corrupted length field cannot
	// trigger a giant allocation during replay.
	maxRecordPayload = 1 << 26
)

// walFile is the open append handle.
type walFile struct {
	f *os.File
}

func (w *walFile) append(buf []byte, fsync bool) error {
	start := time.Now()
	_, err := w.f.Write(buf)
	walAppendSeconds.ObserveSince(start)
	if err != nil {
		return fmt.Errorf("registry: wal append: %w", err)
	}
	walRecordsTotal.Inc()
	walBytesTotal.Add(uint64(len(buf)))
	if fsync {
		syncStart := time.Now()
		err := w.f.Sync()
		walFsyncSeconds.ObserveSince(syncStart)
		if err != nil {
			return fmt.Errorf("registry: wal fsync: %w", err)
		}
	}
	return nil
}

func (w *walFile) close() error { return w.f.Close() }

func (r *Registry) walPath() string  { return filepath.Join(r.dir, walName) }
func (r *Registry) snapPath() string { return filepath.Join(r.dir, snapName) }

// appendRecord journals one mutation.  Callers hold opmu.R (and usually an
// entry lock); pmu serializes sequence assignment with the physical append
// so the on-disk order equals the seq order.
func (r *Registry) appendRecord(typ byte, payload []byte) error {
	_, err := r.appendRecordSeq(typ, payload)
	return err
}

// appendRecordSeq is appendRecord returning the assigned sequence number so
// replication-aware callers (Entry.Issue) can wait for follower acks on it.
// Volatile registries still assign sequence numbers and feed the append
// observer — their "durability" is the in-memory store itself — so a
// volatile primary can replicate.
func (r *Registry) appendRecordSeq(typ byte, payload []byte) (uint64, error) {
	r.pmu.Lock()
	if r.wal == nil && r.dir != "" {
		// Persistent registry whose WAL is gone: Close won the race with
		// this mutation.  Refuse rather than mutate without a journal.
		r.pmu.Unlock()
		return 0, ErrClosed
	}
	r.seq++
	seq := r.seq
	needCompact, err := r.appendLocked(seq, typ, payload)
	r.pmu.Unlock()
	r.maybeCompactAsync(needCompact)
	return seq, err
}

// appendLocked writes one framed record at seq (pmu held), notifies the
// append observer on success, and reports whether auto-compaction is due.
func (r *Registry) appendLocked(seq uint64, typ byte, payload []byte) (needCompact bool, err error) {
	if r.wal != nil {
		buf := make([]byte, 0, recHeaderLen+len(payload)+recTrailerLen)
		buf = appendU64(buf, seq)
		buf = append(buf, typ)
		buf = appendU32(buf, uint32(len(payload)))
		buf = append(buf, payload...)
		buf = appendU32(buf, crc32.ChecksumIEEE(buf))
		if err = r.wal.append(buf, r.opts.Fsync); err != nil {
			return false, err
		}
		r.sinceSnap++
		needCompact = r.opts.SnapshotEvery > 0 && r.sinceSnap >= r.opts.SnapshotEvery
	}
	if list := r.appendObs.Load(); list != nil {
		// Called under pmu so observers see records in exact seq order.
		// Observers must be fast and must copy payload if they retain it.
		for _, obs := range *list {
			obs(seq, typ, payload)
		}
	}
	return needCompact, nil
}

func (r *Registry) maybeCompactAsync(needCompact bool) {
	if needCompact && r.compacting.CompareAndSwap(false, true) {
		// Compact needs opmu.W; the triggering mutation still holds
		// opmu.R, so compaction must run asynchronously.
		go func() {
			defer r.compacting.Store(false)
			_ = r.Compact()
		}()
	}
}

// Compact writes a full snapshot and resets the WAL.  It excludes all
// mutations for its duration (reads proceed) and is a no-op for volatile
// registries.
func (r *Registry) Compact() error {
	r.opmu.Lock()
	defer r.opmu.Unlock()
	return r.compactLocked()
}

// compactLocked requires opmu.W (a quiescent store).
func (r *Registry) compactLocked() error {
	if r.wal == nil {
		return nil
	}
	defer compactionSeconds.ObserveSince(time.Now())
	r.pmu.Lock()
	defer r.pmu.Unlock()

	if err := r.writeSnapshotFile(sealBlob(snapMagic, r.snapshotBodyLocked())); err != nil {
		return err
	}
	// Snapshot durable; the WAL prefix is now redundant.  Recreate it
	// empty.  A crash before this point leaves seq ≤ snapshot-seq records
	// behind, which replay skips.
	return r.resetWALLocked()
}

// snapshotBodyLocked serializes the full store at the current sequence cut.
// Requires opmu.W (quiescent store: reading entry state without e.mu is
// race-free) and pmu (stable seq).
func (r *Registry) snapshotBodyLocked() []byte {
	body := appendU64(nil, r.seq)
	count := 0
	for i := range r.shards {
		count += len(r.shards[i].m)
	}
	body = appendU32(body, uint32(count))
	for i := range r.shards {
		for _, e := range r.shards[i].m {
			body = appendEntryState(body, e)
		}
	}
	return appendOwnershipState(body, &r.own)
}

// appendOwnershipState serializes the migration/ownership tail of an XPS3
// snapshot: epoch, active fences, departed ranges, in-flight arrivals (with
// their chip sets, so arriving flags survive a snapshot load), and completed
// inbound migration IDs (the idempotence memory a restarted source queries).
func appendOwnershipState(b []byte, o *ownState) []byte {
	b = appendU64(b, o.epoch)
	b = appendU32(b, uint32(len(o.fences)))
	for _, f := range o.fences {
		b = appendString(b, f.ID)
		b = appendString(b, f.Lo)
		b = appendString(b, f.Hi)
	}
	b = appendU32(b, uint32(len(o.departed)))
	for _, d := range o.departed {
		b = appendString(b, d.Lo)
		b = appendString(b, d.Hi)
		b = appendU64(b, d.Epoch)
		b = appendString(b, d.Redirect)
	}
	b = appendU32(b, uint32(len(o.arrivals)))
	for migID, a := range o.arrivals {
		b = appendString(b, migID)
		b = appendString(b, a.lo)
		b = appendString(b, a.hi)
		b = appendU64(b, a.epoch)
		b = appendU32(b, uint32(len(a.chips)))
		for id := range a.chips {
			b = appendString(b, id)
		}
	}
	b = appendU32(b, uint32(len(o.completed)))
	for migID, epoch := range o.completed {
		b = appendString(b, migID)
		b = appendU64(b, epoch)
	}
	return b
}

// readOwnershipState decodes the XPS3 ownership tail.
func (rd *reader) readOwnershipState() ownState {
	var o ownState
	o.init()
	o.epoch = rd.u64()
	nf := int(rd.u32())
	for i := 0; i < nf && rd.err == nil; i++ {
		o.fences = append(o.fences, MigRange{ID: rd.str(), Lo: rd.str(), Hi: rd.str()})
	}
	nd := int(rd.u32())
	for i := 0; i < nd && rd.err == nil; i++ {
		o.departed = append(o.departed, DepartedRange{
			Lo: rd.str(), Hi: rd.str(), Epoch: rd.u64(), Redirect: rd.str()})
	}
	na := int(rd.u32())
	for i := 0; i < na && rd.err == nil; i++ {
		migID := rd.str()
		a := &arrival{lo: rd.str(), hi: rd.str(), epoch: rd.u64(), chips: make(map[string]struct{})}
		nc := int(rd.u32())
		if rd.err == nil && nc > maxUsedWords {
			rd.fail("implausible arrival chip count %d", nc)
		}
		for j := 0; j < nc && rd.err == nil; j++ {
			a.chips[rd.str()] = struct{}{}
		}
		o.arrivals[migID] = a
	}
	ncp := int(rd.u32())
	for i := 0; i < ncp && rd.err == nil; i++ {
		id := rd.str()
		o.completed[id] = rd.u64()
	}
	return o
}

// sealBlob frames body as magic | body | crc32(body) — the layout of the
// XPS snapshot file and the XPR1 range snapshot.
func sealBlob(magic [4]byte, body []byte) []byte {
	buf := make([]byte, 0, 4+len(body)+4)
	buf = append(buf, magic[:]...)
	buf = append(buf, body...)
	return appendU32(buf, crc32.ChecksumIEEE(body))
}

// openBlob verifies a sealed blob whose magic is one of magics and returns
// that magic and the body.  Every blob body starts with a seq (u64) and a
// count (u32), so anything shorter is refused with the bad-magic error.
// what names the blob in errors.
func openBlob(data []byte, what string, magics ...[4]byte) ([4]byte, []byte, error) {
	if len(data) >= 4+8+4+4 {
		magic := [4]byte(data[:4])
		for _, m := range magics {
			if magic != m {
				continue
			}
			body, trailer := data[4:len(data)-4], data[len(data)-4:]
			if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
				return magic, nil, fmt.Errorf("%w: %s checksum mismatch", ErrCorrupt, what)
			}
			return magic, body, nil
		}
	}
	return [4]byte{}, nil, fmt.Errorf("%w: bad %s magic", ErrCorrupt, what)
}

// writeSnapshotFile atomically replaces the snapshot file with data (an
// XPS2-framed snapshot): temp file, fsync, rename.
func (r *Registry) writeSnapshotFile(data []byte) error {
	tmp := r.snapPath() + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, r.snapPath()); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// resetWALLocked closes the current WAL and recreates it empty (pmu held).
func (r *Registry) resetWALLocked() error {
	if err := r.wal.close(); err != nil {
		return err
	}
	f, err := os.Create(r.walPath())
	if err != nil {
		return err
	}
	if _, err := f.Write(walMagic[:]); err != nil {
		f.Close()
		return err
	}
	r.wal = &walFile{f: f}
	r.sinceSnap = 0
	return nil
}

// recover loads snapshot + WAL tail and leaves the WAL open for append.
func (r *Registry) recover() error {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	snapSeq, err := r.loadSnapshot()
	if err != nil {
		return err
	}
	r.seq = snapSeq
	if err := r.replayWAL(snapSeq); err != nil {
		return err
	}
	return nil
}

// loadSnapshot installs all entries (and the ownership state) from the
// snapshot file, returning its sequence cut (0 when no snapshot exists).
func (r *Registry) loadSnapshot() (uint64, error) {
	data, err := os.ReadFile(r.snapPath())
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	entries, own, seq, err := r.decodeSnapshot(data)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		r.install(e)
	}
	r.own = own
	return seq, nil
}

// decodeSnapshot validates an XPS1/XPS2/XPS3-framed snapshot and
// materializes its entries and ownership state without installing them, so
// callers can reject a corrupt snapshot before touching live state.
// Pre-migration snapshots (XPS1/XPS2) decode with empty ownership state, and
// XPS1 additionally recovers its chips with pristine drift detectors.
func (r *Registry) decodeSnapshot(data []byte) ([]*Entry, ownState, uint64, error) {
	var own ownState
	own.init()
	magic, body, err := openBlob(data, "snapshot", snapMagic, snapMagicV2, snapMagicV1)
	if err != nil {
		return nil, own, 0, err
	}
	hasHealth := magic != snapMagicV1
	hasOwnership := magic == snapMagic
	rd := &reader{b: body}
	seq := rd.u64()
	count := int(rd.u32())
	var entries []*Entry
	for i := 0; i < count && rd.err == nil; i++ {
		var e *Entry
		if hasHealth {
			e = r.readEntryState(rd)
		} else {
			id := rd.str()
			st := rd.readSelectorState()
			model := rd.readModel()
			denials := int(rd.u32())
			locked := rd.u8() == 1
			if rd.err != nil {
				break
			}
			sel := r.newSelector(id, model)
			sel.ImportState(st)
			e = &Entry{id: id, reg: r, model: model, selector: sel,
				denials: denials, locked: locked,
				tracker: health.NewTracker(r.opts.Health)}
		}
		if e != nil {
			entries = append(entries, e)
		}
	}
	if rd.err == nil && hasOwnership {
		own = rd.readOwnershipState()
	}
	if rd.err != nil {
		return nil, own, 0, fmt.Errorf("snapshot entry decode: %w", rd.err)
	}
	// Re-flag arriving chips from the persisted arrival sets.
	for migID, a := range own.arrivals {
		for _, e := range entries {
			if _, ok := a.chips[e.id]; ok {
				e.arriving = migID
			}
		}
	}
	return entries, own, seq, nil
}

// replayWAL applies records with seq > snapSeq, truncates any torn tail, and
// opens the file for append (creating it when absent).
func (r *Registry) replayWAL(snapSeq uint64) error {
	path := r.walPath()
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return r.createWAL()
	}
	if err != nil {
		return err
	}
	records := 0
	good, err := walkWAL(data, func(seq uint64, typ byte, payload []byte) error {
		if seq > snapSeq {
			if err := r.applyRecord(typ, payload); err != nil {
				return err
			}
		}
		if seq > r.seq {
			r.seq = seq
		}
		records++
		return nil
	})
	if err != nil {
		return err
	}
	r.sinceSnap = records
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	// Drop a torn/corrupt tail so subsequent appends land on a clean
	// record boundary.
	if good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return err
	}
	r.wal = &walFile{f: f}
	return nil
}

// walkWAL checks a WAL image's magic, then calls fn with each intact record
// in order.  It stops at the first torn or corrupt record — everything after
// one is untrustworthy — or at fn's first error, and returns the length of
// the intact prefix.  Recovery and offline tooling (IterateWAL) share it, so
// both apply the same torn-tail tolerance.
func walkWAL(data []byte, fn func(seq uint64, typ byte, payload []byte) error) (int, error) {
	if len(data) < 4 || [4]byte(data[:4]) != walMagic {
		// Unrecognizable log: refuse to guess rather than silently drop
		// the never-reuse history.
		return 0, fmt.Errorf("%w: bad WAL magic", ErrCorrupt)
	}
	off := 4
	for {
		rest := data[off:]
		if len(rest) < recHeaderLen+recTrailerLen {
			break // clean end or torn header
		}
		plen := int(binary.LittleEndian.Uint32(rest[9:13]))
		if plen > maxRecordPayload || len(rest) < recHeaderLen+plen+recTrailerLen {
			break // torn or garbage payload
		}
		rec := rest[:recHeaderLen+plen]
		if crc32.ChecksumIEEE(rec) != binary.LittleEndian.Uint32(rest[len(rec):]) {
			break // corrupt record
		}
		if err := fn(binary.LittleEndian.Uint64(rec), rec[8], rec[recHeaderLen:]); err != nil {
			return off, err
		}
		off += len(rec) + recTrailerLen
	}
	return off, nil
}

func (r *Registry) createWAL() error {
	f, err := os.Create(r.walPath())
	if err != nil {
		return err
	}
	if _, err := f.Write(walMagic[:]); err != nil {
		f.Close()
		return err
	}
	r.wal = &walFile{f: f}
	return nil
}

// applyRecord replays one journal record during recovery (single-threaded).
func (r *Registry) applyRecord(typ byte, payload []byte) error {
	rd := &reader{b: payload}
	switch typ {
	case recRegister:
		id := rd.str()
		budget := int(rd.u32())
		model := rd.readModel()
		if rd.err != nil {
			return fmt.Errorf("register record: %w", rd.err)
		}
		if r.Lookup(id) != nil {
			return nil // snapshot already covers it
		}
		sel := r.newSelector(id, model)
		sel.SetBudget(budget)
		r.install(&Entry{id: id, reg: r, model: model, selector: sel,
			tracker: health.NewTracker(r.opts.Health)})
	case recIssued, recKeyIssued:
		id := rd.str()
		n := int(rd.u32())
		if rd.err == nil && n > maxUsedWords {
			rd.fail("implausible issued count %d", n)
		}
		if rd.err != nil {
			return fmt.Errorf("issued record: %w", rd.err)
		}
		words := make([]uint64, n)
		for i := range words {
			words[i] = rd.u64()
		}
		if rd.err != nil {
			return fmt.Errorf("issued record: %w", rd.err)
		}
		if e := r.Lookup(id); e != nil {
			e.selector.MarkUsed(words...)
		}
	case recAbuse:
		id := rd.str()
		denials := int(rd.u32())
		locked := rd.u8() == 1
		if rd.err != nil {
			return fmt.Errorf("abuse record: %w", rd.err)
		}
		if e := r.Lookup(id); e != nil {
			e.denials = denials
			e.locked = locked
		}
	case recDeregister:
		id := rd.str()
		if rd.err != nil {
			return fmt.Errorf("deregister record: %w", rd.err)
		}
		sh := r.shard(id)
		if _, ok := sh.m[id]; ok {
			delete(sh.m, id)
			chipsGauge.Dec()
		}
	case recHealth:
		id := rd.str()
		st := rd.readTrackerState()
		if rd.err != nil {
			return fmt.Errorf("health record: %w", rd.err)
		}
		if e := r.Lookup(id); e != nil {
			e.tracker.Restore(st)
		}
	case recReenroll:
		id := rd.str()
		budget := int(rd.u32())
		model := rd.readModel()
		if rd.err != nil {
			return fmt.Errorf("reenroll record: %w", rd.err)
		}
		e := r.Lookup(id)
		if e == nil {
			// The registration this replaces was dropped (e.g. deregistered
			// before the snapshot cut); treat as a fresh registration.
			sel := r.newSelector(id, model)
			sel.SetBudget(budget)
			r.install(&Entry{id: id, reg: r, model: model, selector: sel,
				tracker: health.NewTracker(r.opts.Health)})
			return nil
		}
		// Mirror Replace: swap the model, keep every previously issued
		// challenge burned, reset abuse counters and drift detectors.
		sel := r.newSelector(id, model)
		sel.SetBudget(budget)
		sel.MarkUsed(e.selector.ExportState().Used...)
		e.model, e.selector = model, sel
		e.denials, e.locked = 0, false
		e.tracker.Reset()
	case recMigratedBurn:
		id := rd.str()
		n := int(rd.u32())
		if rd.err == nil && n > maxUsedWords {
			rd.fail("implausible issued count %d", n)
		}
		if rd.err != nil {
			return fmt.Errorf("migrated-burn record: %w", rd.err)
		}
		words := make([]uint64, n)
		for i := range words {
			words[i] = rd.u64()
		}
		if rd.err != nil {
			return fmt.Errorf("migrated-burn record: %w", rd.err)
		}
		if e := r.Lookup(id); e != nil {
			e.selector.MarkUsed(words...)
		}
	case recRangeFence:
		migID, lo, hi, mode := rd.readFence()
		if rd.err != nil {
			return fmt.Errorf("fence record: %w", rd.err)
		}
		r.ownMu.Lock()
		r.own.fences = deleteFence(r.own.fences, migID)
		if mode == fenceSet {
			r.own.fences = append(r.own.fences, MigRange{ID: migID, Lo: lo, Hi: hi})
		}
		r.ownMu.Unlock()
	case recMigrateIn:
		migID := rd.str()
		lo := rd.str()
		hi := rd.str()
		e := r.readEntryState(rd)
		if rd.err != nil {
			return fmt.Errorf("migrate-in record: %w", rd.err)
		}
		e.arriving = migID
		r.installArriving(e)
		r.ownMu.Lock()
		a := r.own.arrivals[migID]
		if a == nil {
			a = &arrival{lo: lo, hi: hi, chips: make(map[string]struct{})}
			r.own.arrivals[migID] = a
		}
		a.lo, a.hi = lo, hi
		a.chips[e.id] = struct{}{}
		r.ownMu.Unlock()
	case recCutover:
		migID, epoch, lo, hi, role, redirect := rd.readCutover()
		if rd.err != nil {
			return fmt.Errorf("cutover record: %w", rd.err)
		}
		if role == cutoverSource {
			r.applyCutoverSource(migID, epoch, lo, hi, redirect)
		} else {
			r.applyCutoverTarget(migID, epoch, lo, hi)
		}
	case recMigrateAbort:
		migID := rd.str()
		if rd.err != nil {
			return fmt.Errorf("migrate-abort record: %w", rd.err)
		}
		r.applyMigrateAbort(migID)
	default:
		return fmt.Errorf("%w: unknown record type %d", ErrCorrupt, typ)
	}
	return nil
}
