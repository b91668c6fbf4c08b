package repl

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strconv"
	"sync"
	"time"

	"xorpuf/internal/registry"
	"xorpuf/internal/telemetry/dtrace"
	"xorpuf/internal/wire"
)

// State is a follower's replication state.
type State string

const (
	StateConnecting State = "connecting" // dialing or handshaking
	StateSyncing    State = "syncing"    // installing a bootstrap snapshot
	StateStreaming  State = "streaming"  // tailing the primary's log
	StateDegraded   State = "degraded"   // link lost or terminal error; will reconnect
	StatePromoted   State = "promoted"   // replication stopped; serving as primary
)

// FollowerConfig tunes a replication follower.
type FollowerConfig struct {
	// Dial opens the link to the primary (default net.Dialer; tests inject
	// a faultnet dialer here).
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)
	// ReconnectMin/Max bound the exponential reconnect backoff
	// (defaults 100ms / 5s).
	ReconnectMin, ReconnectMax time.Duration
}

func (c FollowerConfig) normalized() FollowerConfig {
	if c.Dial == nil {
		var d net.Dialer
		c.Dial = d.DialContext
	}
	if c.ReconnectMin <= 0 {
		c.ReconnectMin = 100 * time.Millisecond
	}
	if c.ReconnectMax <= 0 {
		c.ReconnectMax = 5 * time.Second
	}
	return c
}

// FollowerStatus is a point-in-time summary for /healthz and /repl.
type FollowerStatus struct {
	State       State  `json:"state"`
	Primary     string `json:"primary"`
	AppliedSeq  uint64 `json:"applied_seq"`
	PrimarySeq  uint64 `json:"primary_seq"`
	LagRecords  uint64 `json:"lag_records"`
	LagBytes    uint64 `json:"lag_bytes"`
	Disconnects uint64 `json:"disconnects"`
	LastError   string `json:"last_error,omitempty"`
}

// Follower tails a primary's log into a local registry.  The local registry
// must take no other mutations while the follower runs; Promote stops
// replication and hands the registry over for serving.
type Follower struct {
	reg  *registry.Registry
	addr string
	cfg  FollowerConfig

	mu          sync.Mutex
	state       State
	lastErr     error
	appliedSeq  uint64
	primarySeq  uint64
	appliedByte uint64 // primary's byte counter at our applied position
	primaryByte uint64
	disconnects uint64
	promoted    bool
	cancel      context.CancelFunc
	done        chan struct{}
	started     bool
}

// NewFollower prepares a follower replicating from the primary's repl
// address into reg.  Call Run to start.
func NewFollower(reg *registry.Registry, addr string, cfg FollowerConfig) *Follower {
	return &Follower{reg: reg, addr: addr, cfg: cfg.normalized(),
		state: StateConnecting, done: make(chan struct{})}
}

// Run replicates until ctx is canceled or Promote is called.  Link loss and
// terminal link errors degrade the follower (visible in Status and
// telemetry) and trigger reconnection with backoff; they never stop Run.
func (f *Follower) Run(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	f.mu.Lock()
	if f.started || f.promoted {
		f.mu.Unlock()
		cancel()
		return
	}
	f.started = true
	f.cancel = cancel
	f.mu.Unlock()
	defer close(f.done)

	backoff := f.cfg.ReconnectMin
	for {
		if ctx.Err() != nil {
			return
		}
		err := f.session(ctx)
		if ctx.Err() != nil {
			return
		}
		f.degrade(err)
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > f.cfg.ReconnectMax {
			backoff = f.cfg.ReconnectMax
		}
	}
}

func (f *Follower) degrade(err error) {
	f.mu.Lock()
	f.state = StateDegraded
	f.lastErr = err
	f.disconnects++
	f.mu.Unlock()
	replDegraded.Inc()
}

func (f *Follower) setState(s State) {
	f.mu.Lock()
	f.state = s
	f.mu.Unlock()
}

// session runs one replication link end to end; any returned error is
// terminal for the link but not for the follower.
func (f *Follower) session(ctx context.Context) error {
	f.setState(StateConnecting)
	dctx, dcancel := context.WithTimeout(ctx, ioTimeout)
	conn, err := f.cfg.Dial(dctx, "tcp", f.addr)
	dcancel()
	if err != nil {
		return err
	}
	defer conn.Close()
	// A canceled context (shutdown or promotion) must unblock any read.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	br := bufio.NewReader(conn)
	var buf []byte
	conn.SetDeadline(time.Now().Add(ioTimeout))
	if err := wire.WriteOpaque(conn, fHello, helloPayload(f.reg.Seq())); err != nil {
		return err
	}

	// Snapshot phase: always announced, possibly empty.
	f.setState(StateSyncing)
	typ, payload, err := wire.ReadOpaque(br, &buf)
	if err != nil {
		return err
	}
	if typ == fError {
		if le, derr := DecodeError(payload); derr == nil {
			return le
		}
		return linkErrf(CodeProto, "undecodable error frame")
	}
	if typ != fSnapBegin {
		return linkErrf(CodeProto, "want snap-begin, got frame type %d", typ)
	}
	snapSeq, dataLen, baseBytes, err := decodeSnapBegin(payload)
	if err != nil {
		return err
	}
	snap, err := ReceiveSnapshot(conn, br, &buf, fSnapChunk, fSnapEnd, dataLen, ioTimeout)
	if err != nil {
		return err
	}
	applied := f.reg.Seq()
	if len(snap) > 0 {
		if err := f.reg.InstallSnapshot(snap); err != nil {
			f.sendError(conn, CodeApply, err)
			return linkErrf(CodeApply, "install snapshot: %v", err)
		}
		applied = snapSeq
		replSnapshots.Inc()
	}

	f.mu.Lock()
	f.appliedSeq = applied
	f.appliedByte = baseBytes
	if f.primarySeq < snapSeq {
		f.primarySeq = snapSeq
	}
	if f.primaryByte < baseBytes {
		f.primaryByte = baseBytes
	}
	f.state = StateStreaming
	f.mu.Unlock()
	// Stream phase: apply, then acknowledge — never the other way around.
	// The primary writes a burst of frames at once, so the follower acks
	// once per burst: ackDue is set by every applied record and heartbeat,
	// and the ack goes out as soon as the read buffer holds no further
	// bytes, before the read that would block, or after maxUnacked records
	// while a backlog keeps the buffer from draining.  It carries the last
	// applied seq.  lastApply* remember the most recent record's apply
	// timing so a trace marker arriving right behind it (markers ship after
	// their record on the same ordered link) can reconstruct the apply+ack
	// span.
	ackDue := true // the snapshot phase's position
	unacked := 0   // records applied since the last ack
	var ack []byte
	var lastApplyStart time.Time
	var lastApplySeconds float64
	for {
		if br.Buffered() == 0 || unacked >= maxUnacked {
			conn.SetDeadline(time.Now().Add(idleTimeout))
			if ackDue {
				var v [8]byte
				binary.LittleEndian.PutUint64(v[:], applied)
				ack = wire.AppendOpaque(ack[:0], fAck, v[:])
				if _, err := conn.Write(ack); err != nil {
					return err
				}
				ackDue, unacked = false, 0
				f.publishLag()
			}
		}
		typ, payload, err := wire.ReadOpaque(br, &buf)
		if err != nil {
			return err
		}
		switch typ {
		case fRecord:
			seq, rectype, rec, err := DecodeRecord(payload)
			if err != nil {
				return err
			}
			if seq > applied {
				start := time.Now()
				err := f.reg.ApplyReplicated(seq, rectype, rec)
				replApplySeconds.ObserveSince(start)
				lastApplyStart = start
				lastApplySeconds = time.Since(start).Seconds()
				if err != nil {
					// Terminal: a WAL append/fsync failure or sequence gap
					// means this record is not durably ours.  Degrade and
					// drop the link without acknowledging it.
					code := CodeApply
					if errors.Is(err, registry.ErrSeqGap) {
						code = CodeSeqGap
					}
					f.sendError(conn, code, err)
					return linkErrf(code, "apply seq %d: %v", seq, err)
				}
				applied = seq
				unacked++
				replApplied.Inc()
				f.mu.Lock()
				f.appliedSeq = applied
				f.appliedByte += uint64(len(buf)) // the whole frame, as the primary counts it
				if f.primarySeq < seq {
					f.primarySeq = seq
				}
				f.mu.Unlock()
			}
			ackDue = true
		case fHeartbeat:
			pseq, pbytes, err := decodeHeartbeat(payload)
			if err != nil {
				return err
			}
			f.mu.Lock()
			if f.primarySeq < pseq {
				f.primarySeq = pseq
			}
			if f.primaryByte < pbytes {
				f.primaryByte = pbytes
			}
			f.mu.Unlock()
			ackDue = true
		case fTraceMark:
			// Observability only, tolerant end to end: a malformed marker
			// or unparseable context is dropped, never a link error.  The
			// marker ships behind its record on the same ordered link, so
			// by the time it arrives the record is applied (or was covered
			// by the snapshot) and the follower can record its leg of the
			// distributed trace in its own process ring.
			seq, tctx, derr := decodeTraceMark(payload)
			if derr != nil || seq > applied {
				break
			}
			if tc, ok := dtrace.ParseContext(tctx); ok {
				start, secs := lastApplyStart, lastApplySeconds
				if start.IsZero() {
					start, secs = time.Now(), 0 // record predates this link (snapshot-covered)
				}
				dtrace.Default.Record(dtrace.Span{
					Trace:   tc.Trace,
					ID:      dtrace.NewSpanID(),
					Parent:  tc.Span,
					Name:    "repl.apply_ack",
					Start:   start,
					Seconds: secs,
					Status:  "ok",
					Attrs: map[string]string{
						"seq":     strconv.FormatUint(seq, 10),
						"primary": f.addr,
					},
				})
			}
		case fError:
			if le, derr := DecodeError(payload); derr == nil {
				return le
			}
			return linkErrf(CodeProto, "undecodable error frame")
		default:
			return linkErrf(CodeProto, "unexpected frame type %d", typ)
		}
	}
}

func (f *Follower) sendError(conn net.Conn, code string, err error) {
	conn.SetWriteDeadline(time.Now().Add(ioTimeout))
	wire.WriteOpaque(conn, fError, ErrorPayload(code, err.Error())) //nolint:errcheck
}

// publishLag refreshes the replication-lag gauges from the follower's view.
func (f *Follower) publishLag() {
	f.mu.Lock()
	var recs, bytes uint64
	if f.primarySeq > f.appliedSeq {
		recs = f.primarySeq - f.appliedSeq
	}
	if f.primaryByte > f.appliedByte {
		bytes = f.primaryByte - f.appliedByte
	}
	f.mu.Unlock()
	replLagRecords.Set(int64(recs))
	replLagBytes.Set(int64(bytes))
}

// Status reports the follower's replication state.
func (f *Follower) Status() FollowerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FollowerStatus{
		State: f.state, Primary: f.addr,
		AppliedSeq: f.appliedSeq, PrimarySeq: f.primarySeq,
		Disconnects: f.disconnects,
	}
	if f.primarySeq > f.appliedSeq {
		st.LagRecords = f.primarySeq - f.appliedSeq
	}
	if f.primaryByte > f.appliedByte {
		st.LagBytes = f.primaryByte - f.appliedByte
	}
	if f.lastErr != nil {
		st.LastError = f.lastErr.Error()
	}
	return st
}

// Promote stops replication and returns the sequence number of the last
// locally durable record.  The registry is then a sequence-exact copy of
// everything it acknowledged and is ready to serve as the new primary: every
// challenge the old primary released under quorum is already burned here.
// Promote is idempotent; it waits for the replication loop to fully stop.
func (f *Follower) Promote() uint64 {
	f.mu.Lock()
	already := f.promoted
	f.promoted = true
	cancel, started := f.cancel, f.started
	f.mu.Unlock()
	if !already && cancel != nil {
		cancel()
	}
	if started {
		<-f.done
	}
	f.mu.Lock()
	f.state = StatePromoted
	f.mu.Unlock()
	replLagRecords.Set(0)
	replLagBytes.Set(0)
	return f.reg.Seq()
}
