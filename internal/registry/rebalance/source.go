package rebalance

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"xorpuf/internal/registry"
	"xorpuf/internal/registry/repl"
	"xorpuf/internal/wire"
)

// SourceConfig parameterizes one outbound migration.
type SourceConfig struct {
	// MigrationID names the migration; both sides journal it, and restarts
	// must reuse it so the target's cutover record can be matched.
	MigrationID string
	// Lo/Hi bound the chip-ID range [Lo, Hi) being migrated, compared
	// lexicographically.  Hi == "" means unbounded above.
	Lo, Hi string
	// TargetAddr is the target's migration acceptor (host:port).
	TargetAddr string
	// Redirect is the address redirected clients should dial after cutover —
	// normally the target's auth listener, not its migration listener.
	Redirect string
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// AckTimeout bounds each wait for a target acknowledgement (default 10s).
	AckTimeout time.Duration
	// RetryBackoff is the initial delay between session attempts, doubling up
	// to 16x (default 200ms).
	RetryBackoff time.Duration
	// MaxAttempts caps session attempts; 0 retries indefinitely until Abort.
	MaxAttempts int
	// QueueSize bounds the live-delta queue; overflow restarts the stream
	// from a fresh snapshot rather than blocking issuance (default 4096).
	QueueSize int
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...interface{})
}

// Source phases, in the order a clean run visits them.
const (
	PhaseConnecting = "connecting"
	PhaseSnapshot   = "snapshot"
	PhaseStreaming  = "streaming"
	PhaseFenced     = "fenced"
	PhaseDone       = "done"
	PhaseAborted    = "aborted"
	PhaseFailed     = "failed"
)

// SourceStatus is a point-in-time snapshot of a migration's progress,
// serializable for the serve admin endpoint and the CLI.
type SourceStatus struct {
	MigrationID  string `json:"migration_id"`
	Lo           string `json:"lo"`
	Hi           string `json:"hi"`
	Target       string `json:"target"`
	Phase        string `json:"phase"`
	Chips        int    `json:"chips"`
	DeltaRecords uint64 `json:"delta_records"`
	Restarts     int    `json:"restarts"`
	Epoch        uint64 `json:"epoch,omitempty"`
	FenceMillis  int64  `json:"fence_millis,omitempty"`
	Error        string `json:"error,omitempty"`
}

// Source drives one range migration out of a registry: snapshot, live delta
// tail, fence, final drain, two-phase cutover.  One goroutine owns the whole
// session; every blocking point watches the abort channel.  The only state
// that deliberately survives a failed attempt is the issuance fence once
// mCutover has been sent — an unacknowledged cutover is ambiguous (the
// target may have journaled it), and unfencing then could issue challenges
// for chips the target now owns.  The next successful hello resolves the
// ambiguity in whichever direction the target's journal says.
type Source struct {
	reg *registry.Registry
	cfg SourceConfig

	mu          sync.Mutex
	phase       string
	chips       int
	deltas      uint64
	restarts    int
	epoch       uint64
	fenceMillis int64
	err         error

	fenceHeld   bool // fence set and not yet cleared/finalized
	cutoverSent atomic.Bool

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// errRestart marks attempt failures that the run loop should retry.
var errRestart = errors.New("rebalance: restart")

// ErrAborted is returned from Wait when the migration was aborted.
var ErrAborted = errors.New("rebalance: migration aborted")

// StartSource validates cfg and launches the migration.
func StartSource(reg *registry.Registry, cfg SourceConfig) (*Source, error) {
	if cfg.MigrationID == "" {
		return nil, errors.New("rebalance: migration ID required")
	}
	if cfg.Lo == "" && cfg.Hi == "" {
		return nil, errors.New("rebalance: refusing to migrate the full keyspace; set lo and/or hi")
	}
	if cfg.Hi != "" && cfg.Lo >= cfg.Hi {
		return nil, fmt.Errorf("rebalance: empty range [%q, %q)", cfg.Lo, cfg.Hi)
	}
	if cfg.TargetAddr == "" {
		return nil, errors.New("rebalance: target address required")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 10 * time.Second
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 200 * time.Millisecond
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 4096
	}
	if cfg.Redirect == "" {
		cfg.Redirect = cfg.TargetAddr
	}
	s := &Source{
		reg:   reg,
		cfg:   cfg,
		phase: PhaseConnecting,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	mActive.Inc()
	go s.run()
	return s, nil
}

func (s *Source) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Status reports current progress.
func (s *Source) Status() SourceStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SourceStatus{
		MigrationID:  s.cfg.MigrationID,
		Lo:           s.cfg.Lo,
		Hi:           s.cfg.Hi,
		Target:       s.cfg.TargetAddr,
		Phase:        s.phase,
		Chips:        s.chips,
		DeltaRecords: s.deltas,
		Restarts:     s.restarts,
		Epoch:        s.epoch,
		FenceMillis:  s.fenceMillis,
	}
	if s.err != nil {
		st.Error = s.err.Error()
	}
	return st
}

// Done is closed when the migration reaches a terminal phase.
func (s *Source) Done() <-chan struct{} { return s.done }

// Wait blocks until terminal and returns nil only for a completed cutover.
func (s *Source) Wait() error {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.phase == PhaseDone {
		return nil
	}
	if s.err != nil {
		return s.err
	}
	return ErrAborted
}

// Abort requests a pre-cutover cancellation.  Once mCutover has been sent
// the outcome is owned by the target's journal and abort is refused — the
// source must keep (re)connecting until the hello exchange resolves it.
func (s *Source) Abort() error {
	if s.cutoverSent.Load() {
		return errors.New("rebalance: cutover in flight; outcome is decided by the target's journal and cannot be aborted")
	}
	s.stopOnce.Do(func() { close(s.stop) })
	return nil
}

func (s *Source) setPhase(p string) {
	s.mu.Lock()
	s.phase = p
	s.mu.Unlock()
}

func (s *Source) aborting() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

func (s *Source) finish(phase string, err error) {
	s.mu.Lock()
	s.phase = phase
	s.err = err
	s.mu.Unlock()
	mActive.Dec()
	close(s.done)
}

func (s *Source) run() {
	start := time.Now()
	backoff := s.cfg.RetryBackoff
	attempts := 0
	for {
		if s.aborting() && !s.cutoverSent.Load() {
			s.abortCleanup()
			s.finish(PhaseAborted, nil)
			return
		}
		err := s.attempt()
		if err == nil {
			mDuration.ObserveSince(start)
			s.finish(PhaseDone, nil)
			return
		}
		if s.aborting() && !s.cutoverSent.Load() {
			s.abortCleanup()
			s.finish(PhaseAborted, nil)
			return
		}
		var me *MigError
		if errors.As(err, &me) && me.Code == CodeAborted {
			// The target refused the migration outright; retrying is futile.
			s.clearFenceIfSafe()
			s.finish(PhaseFailed, err)
			return
		}
		attempts++
		if s.cfg.MaxAttempts > 0 && attempts >= s.cfg.MaxAttempts {
			s.clearFenceIfSafe()
			s.finish(PhaseFailed, fmt.Errorf("rebalance: giving up after %d attempts: %w", attempts, err))
			return
		}
		mRestarts.Inc()
		s.mu.Lock()
		s.restarts++
		s.mu.Unlock()
		s.logf("rebalance %s: attempt %d failed (%v); retrying in %s", s.cfg.MigrationID, attempts, err, backoff)
		s.setPhase(PhaseConnecting)
		select {
		case <-time.After(backoff):
		case <-s.stop:
		}
		if backoff < 16*s.cfg.RetryBackoff {
			backoff *= 2
		}
	}
}

// clearFenceIfSafe lifts the issuance fence unless a cutover is in flight —
// after mCutover the target may own the range, and unfencing would risk
// dual issuance of the same challenge space.
func (s *Source) clearFenceIfSafe() {
	if s.cutoverSent.Load() {
		s.logf("rebalance %s: leaving fence in place — cutover outcome unresolved", s.cfg.MigrationID)
		return
	}
	s.mu.Lock()
	held := s.fenceHeld
	s.fenceHeld = false
	s.mu.Unlock()
	if held {
		if err := s.reg.ClearRangeFence(s.cfg.MigrationID); err != nil {
			s.logf("rebalance %s: clearing fence: %v", s.cfg.MigrationID, err)
		}
	}
}

// abortCleanup tells the target to drop arriving state, best-effort, and
// lifts the local fence.
func (s *Source) abortCleanup() {
	s.clearFenceIfSafe()
	conn, err := net.DialTimeout("tcp", s.cfg.TargetAddr, s.cfg.DialTimeout)
	if err != nil {
		return
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(s.cfg.AckTimeout))
	if err := wire.WriteOpaque(conn, mHello, helloPayload(s.reg.OwnershipEpoch()+1, s.cfg.MigrationID, s.cfg.Lo, s.cfg.Hi)); err != nil {
		return
	}
	var buf []byte
	typ, payload, err := wire.ReadOpaque(bufio.NewReader(conn), &buf)
	if err != nil || typ != mHelloAck {
		return
	}
	if state, _, err := decodeHelloAck(payload); err != nil || state != helloFresh {
		return // already cut over: nothing to abort
	}
	_ = wire.WriteOpaque(conn, mAbort, []byte("operator abort"))
}

// obsRec is one live WAL record captured by the range observer.
type obsRec struct {
	seq     uint64
	typ     byte
	payload []byte
}

// attempt runs one full migration session; nil means cutover completed.
func (s *Source) attempt() error {
	conn, err := net.DialTimeout("tcp", s.cfg.TargetAddr, s.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("%w: dial: %v", errRestart, err)
	}
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<16)

	// Hello: propose the next epoch; learn whether the target already cut
	// over (resolving a previously ambiguous cutover).
	_ = conn.SetDeadline(time.Now().Add(s.cfg.AckTimeout))
	proposed := s.reg.OwnershipEpoch() + 1
	if err := wire.WriteOpaque(conn, mHello, helloPayload(proposed, s.cfg.MigrationID, s.cfg.Lo, s.cfg.Hi)); err != nil {
		return fmt.Errorf("%w: hello: %v", errRestart, err)
	}
	typ, payload, err := s.readReply(br)
	if err != nil {
		return err
	}
	if typ != mHelloAck {
		return migErrf(CodeProto, "expected hello-ack, got frame type %d", typ)
	}
	state, epoch, err := decodeHelloAck(payload)
	if err != nil {
		return err
	}
	if state == helloCutover {
		// The target's journaled cutover wins, whether we remember sending
		// mCutover or not (we may be a restarted process).  Finalize.
		return s.finalize(epoch)
	}
	// Fresh session: the target holds no cutover for this migration.  Any
	// fence left from a failed attempt can be lifted — issuance is safe again
	// because the source is still the sole owner.
	s.cutoverSent.Store(false)
	s.mu.Lock()
	s.fenceHeld = false
	s.mu.Unlock()
	if err := s.reg.ClearRangeFence(s.cfg.MigrationID); err != nil {
		return fmt.Errorf("clearing stale fence: %w", err)
	}

	// Subscribe to live appends BEFORE cutting the snapshot so no range
	// record can fall between snapshot and tail.  The observer runs under
	// the registry's journal lock and must never block: overflow drops the
	// stream coherence flag and forces a restart from a fresh snapshot.
	queue := make(chan obsRec, s.cfg.QueueSize)
	var overflowed atomic.Bool
	remove := s.reg.AddAppendObserver(func(seq uint64, typ byte, payload []byte) {
		id := registry.RecordChipID(typ, payload)
		if id == "" || id < s.cfg.Lo || (s.cfg.Hi != "" && id >= s.cfg.Hi) {
			return
		}
		p := make([]byte, len(payload))
		copy(p, payload)
		select {
		case queue <- obsRec{seq: seq, typ: typ, payload: p}:
		default:
			overflowed.Store(true)
		}
	})
	defer remove()

	s.setPhase(PhaseSnapshot)
	data, cutSeq, count, err := s.reg.RangeSnapshot(s.cfg.Lo, s.cfg.Hi)
	if err != nil {
		return fmt.Errorf("range snapshot: %w", err)
	}
	s.mu.Lock()
	s.chips = count
	s.mu.Unlock()
	s.logf("rebalance %s: shipping %d chips, %d snapshot bytes, cut at seq %d",
		s.cfg.MigrationID, count, len(data), cutSeq)

	_ = conn.SetDeadline(time.Now().Add(s.cfg.AckTimeout))
	if err := wire.WriteOpaque(conn, mSnapBegin, snapBeginPayload(cutSeq, uint64(len(data)), uint32(count))); err != nil {
		return fmt.Errorf("%w: snap begin: %v", errRestart, err)
	}
	if err := repl.SendSnapshot(conn, mSnapChunk, mSnapEnd, data, s.cfg.AckTimeout); err != nil {
		return fmt.Errorf("%w: snapshot: %v", errRestart, err)
	}
	// The target acks the snapshot install via mDeltaAck(cutSeq).
	if err := s.awaitAck(br, conn, cutSeq); err != nil {
		return err
	}

	// Live tail: forward range records as traffic burns challenges.  Once
	// the queue drains we are caught up to within the in-flight window and
	// can fence.
	s.setPhase(PhaseStreaming)
	for {
		if s.aborting() {
			return errRestart // run loop turns this into the abort path
		}
		if overflowed.Load() {
			return fmt.Errorf("%w: delta queue overflow; restarting from snapshot", errRestart)
		}
		select {
		case rec := <-queue:
			if rec.seq <= cutSeq {
				continue // already inside the snapshot
			}
			if err := s.shipDelta(br, conn, rec); err != nil {
				return err
			}
		default:
			goto fence
		}
	}

fence:
	// Handoff window: fence issuance for the range (journaled, so a crashed
	// source recovers fenced), drain the final delta, then hand ownership to
	// the target with a two-phase cutover.
	fenceStart := time.Now()
	s.setPhase(PhaseFenced)
	s.mu.Lock()
	s.fenceHeld = true
	s.mu.Unlock()
	fenceSeq, err := s.reg.SetRangeFence(s.cfg.MigrationID, s.cfg.Lo, s.cfg.Hi)
	if err != nil {
		return fmt.Errorf("setting fence: %w", err)
	}
	// SetRangeFence journals under the same lock the observer runs under, so
	// by the time it returns every range record with seq < fenceSeq is
	// already in the queue.  Drain it.
	for {
		select {
		case rec := <-queue:
			if rec.seq <= cutSeq {
				continue
			}
			if err := s.shipDelta(br, conn, rec); err != nil {
				s.clearFenceIfSafe()
				return err
			}
		default:
			goto cutover
		}
	}

cutover:
	s.cutoverSent.Store(true)
	_ = conn.SetDeadline(time.Now().Add(s.cfg.AckTimeout))
	if err := wire.WriteOpaque(conn, mCutover, repl.U64Payload(fenceSeq)); err != nil {
		return fmt.Errorf("%w: cutover send: %v", errRestart, err)
	}
	typ, payload, err = s.readReply(br)
	if err != nil {
		// Ambiguous: the target may have journaled the cutover before the
		// link died.  The fence stays; the next hello resolves it.
		return fmt.Errorf("%w: cutover ack: %v", errRestart, err)
	}
	if typ != mCutoverAck {
		return migErrf(CodeProto, "expected cutover-ack, got frame type %d", typ)
	}
	ackEpoch, err := repl.DecodeU64(payload, "cutover-ack")
	if err != nil {
		return err
	}
	mFenceSeconds.ObserveSince(fenceStart)
	s.mu.Lock()
	s.fenceMillis = time.Since(fenceStart).Milliseconds()
	s.mu.Unlock()
	return s.finalize(ackEpoch)
}

// finalize journals the source-side cutover: the range departs, the fence
// lifts, resurrected-source requests get a redirect to the new owner.
func (s *Source) finalize(epoch uint64) error {
	if err := s.reg.CutoverSource(s.cfg.MigrationID, epoch, s.cfg.Lo, s.cfg.Hi, s.cfg.Redirect); err != nil {
		return fmt.Errorf("source cutover: %w", err)
	}
	s.mu.Lock()
	s.epoch = epoch
	s.fenceHeld = false
	chips := s.chips
	s.mu.Unlock()
	mChipsMigrated.Add(uint64(chips))
	s.logf("rebalance %s: cutover complete at epoch %d; range [%q,%q) now owned by %s",
		s.cfg.MigrationID, epoch, s.cfg.Lo, s.cfg.Hi, s.cfg.Redirect)
	return nil
}

// shipDelta sends one live record and waits for the target's journal ack.
func (s *Source) shipDelta(br *bufio.Reader, conn net.Conn, rec obsRec) error {
	_ = conn.SetDeadline(time.Now().Add(s.cfg.AckTimeout))
	if err := wire.WriteOpaque(conn, mDelta, repl.RecordPayload(rec.seq, rec.typ, rec.payload)); err != nil {
		return fmt.Errorf("%w: delta send: %v", errRestart, err)
	}
	if err := s.awaitAck(br, conn, rec.seq); err != nil {
		return err
	}
	mDeltaRecords.Inc()
	s.mu.Lock()
	s.deltas++
	s.mu.Unlock()
	return nil
}

// awaitAck reads frames until the expected mDeltaAck arrives.
func (s *Source) awaitAck(br *bufio.Reader, conn net.Conn, want uint64) error {
	_ = conn.SetReadDeadline(time.Now().Add(s.cfg.AckTimeout))
	typ, payload, err := s.readReply(br)
	if err != nil {
		return err
	}
	if typ != mDeltaAck {
		return migErrf(CodeProto, "expected delta-ack, got frame type %d", typ)
	}
	got, err := repl.DecodeU64(payload, "delta-ack")
	if err != nil {
		return err
	}
	if got != want {
		return migErrf(CodeProto, "delta-ack for seq %d, want %d", got, want)
	}
	return nil
}

// readReply reads one frame, converting mError frames and transport errors.
func (s *Source) readReply(br *bufio.Reader) (byte, []byte, error) {
	var buf []byte
	typ, payload, err := wire.ReadOpaque(br, &buf)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: read: %v", errRestart, err)
	}
	if typ == mError {
		le, derr := repl.DecodeError(payload)
		if derr != nil {
			return 0, nil, derr
		}
		me := &MigError{Code: le.Code, Msg: le.Msg}
		if me.Code == CodeAborted {
			return 0, nil, me
		}
		return 0, nil, fmt.Errorf("%w: target: %v", errRestart, me)
	}
	return typ, payload, nil
}
