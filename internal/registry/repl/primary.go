package repl

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xorpuf/internal/registry"
	"xorpuf/internal/telemetry/dtrace"
	"xorpuf/internal/wire"
)

// ErrQuorum is returned (wrapped in a LinkError-free path) by WaitCommitted
// in strict mode when the follower quorum cannot acknowledge an issued
// record: no followers are connected or the ack timeout expired.  The
// issuance path refuses to release the challenges.
var ErrQuorum = errors.New("repl: follower quorum not acknowledged")

// PrimaryConfig tunes a replication primary.
type PrimaryConfig struct {
	// Quorum is how many follower acknowledgements an issued challenge
	// needs before it leaves the server (default 1; 0 replicates fully
	// asynchronously).
	Quorum int
	// Strict makes quorum a hard gate: issuance fails when no followers
	// are connected or the quorum does not acknowledge within AckTimeout.
	// The default (semi-synchronous) prefers availability: a primary with
	// no followers serves standalone and a timeout falls back to async,
	// both visibly counted (repl_unreplicated_issues_total,
	// repl_commit_timeouts_total).
	Strict bool
	// AckTimeout bounds the per-issuance quorum wait (default 2s).
	AckTimeout time.Duration
}

func (c PrimaryConfig) normalized() PrimaryConfig {
	if c.Quorum < 0 {
		c.Quorum = 0
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 2 * time.Second
	}
	return c
}

// link is one connected follower.  Frames wait in the link's queue until a
// flusher writes them: an issuer waiting in WaitCommittedCtx, or the link's
// own goroutine, which observe kicks on every enqueue so no frame stays
// queued.  A flusher takes the whole queue and writes it in one write.
type link struct {
	conn  net.Conn
	addr  string
	kick  chan struct{} // capacity 1: wakes the link goroutine
	stop  chan struct{}
	once  sync.Once
	acked atomic.Uint64

	// qmu guards the queue.  It is taken under the registry's journal
	// lock (observe), so nothing holding it may block.
	qmu    sync.Mutex
	queued []byte // frames in seq order, not yet written
	n      int    // frames in queued
	ready  bool   // the snapshot is sent: queued frames may be written

	// wmu is held for every write to conn once the snapshot is sent, so
	// frames leave the queue and reach the wire in the same order.
	wmu   sync.Mutex
	spare []byte // the last buffer written, the next queue (wmu held)
}

func (l *link) close() {
	l.once.Do(func() { close(l.stop) })
}

// enqueue appends one frame to the queue and kicks the link goroutine.  It
// never blocks; it reports false when the queue already holds linkBuffer
// frames.
func (l *link) enqueue(frame []byte) bool {
	l.qmu.Lock()
	if l.n >= linkBuffer {
		l.qmu.Unlock()
		return false
	}
	l.queued = append(l.queued, frame...)
	l.n++
	l.qmu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return true
}

// markReady lets flushers write the queue once the snapshot is sent.
func (l *link) markReady() {
	l.qmu.Lock()
	l.ready = true
	l.qmu.Unlock()
}

// flush writes every queued frame, in one write per pass, until the queue
// is empty, each write bounded by deadline.  Caller holds wmu.
func (l *link) flush(deadline time.Time) error {
	for {
		l.qmu.Lock()
		if !l.ready || len(l.queued) == 0 {
			l.qmu.Unlock()
			return nil
		}
		buf := l.queued
		l.queued, l.n = l.spare[:0], 0
		l.qmu.Unlock()
		l.spare = nil
		if cap(buf) <= maxKeptBuf {
			l.spare = buf
		}
		l.conn.SetWriteDeadline(deadline)
		if _, err := l.conn.Write(buf); err != nil {
			return err
		}
	}
}

// Primary attaches to a registry as its replication source: it taps every
// durably journaled record via the append observer, fans records out to
// connected followers, and gates challenge issuance on follower
// acknowledgements via the commit waiter.
type Primary struct {
	reg       *registry.Registry
	cfg       PrimaryConfig
	unobserve func() // detaches observe from reg

	mu      sync.Mutex
	cond    *sync.Cond
	links   map[*link]struct{}
	ln      net.Listener
	closed  bool
	lastSeq uint64 // highest seq shipped (observer-maintained)
	bytes   uint64 // cumulative record-frame bytes shipped

	frame []byte // observe's encoded frame, reused (journal lock held)

	wg sync.WaitGroup
}

// NewPrimary wires a primary onto reg.  From this call on, issuance on reg
// waits for the configured quorum; call Close to detach.
func NewPrimary(reg *registry.Registry, cfg PrimaryConfig) *Primary {
	p := &Primary{reg: reg, cfg: cfg.normalized(), links: make(map[*link]struct{})}
	p.cond = sync.NewCond(&p.mu)
	p.lastSeq = reg.Seq() // journal position at attach: pre-existing records ship by snapshot
	p.unobserve = reg.AddAppendObserver(p.observe)
	reg.SetCommitWaiter(p.WaitCommittedCtx)
	return p
}

// observe runs under the registry's journal lock: it only encodes the
// record's frame once, into p.frame, and queues a copy on every link.  A
// follower whose queue is full is marked dead here (its writer notices and
// drops the link) — blocking would stall every journal append in the
// process.
func (p *Primary) observe(seq uint64, typ byte, payload []byte) {
	var head [9]byte
	binary.LittleEndian.PutUint64(head[:8], seq)
	head[8] = typ
	p.frame = wire.AppendOpaqueHead(p.frame[:0], fRecord, head[:], payload)
	p.mu.Lock()
	p.lastSeq = seq
	p.bytes += uint64(len(p.frame))
	for l := range p.links {
		if !l.enqueue(p.frame) {
			l.close() // overflow: terminal for the link, never for the log
		}
	}
	p.mu.Unlock()
	if cap(p.frame) > maxKeptBuf {
		p.frame = nil
	}
	replShipped.Inc()
}

// Serve accepts follower connections on ln until Close.
func (p *Primary) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ln.Close()
		return errors.New("repl: primary closed")
	}
	p.ln = ln
	p.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handle(conn)
		}()
	}
}

// handle runs one follower session: handshake, snapshot, then stream.
func (p *Primary) handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	var buf []byte

	conn.SetDeadline(time.Now().Add(ioTimeout))
	typ, payload, err := wire.ReadOpaque(br, &buf)
	if err != nil || typ != fHello {
		return
	}
	version, lastSeq, err := decodeHello(payload)
	if err != nil || version != protocolVersion {
		wire.WriteOpaque(conn, fError, ErrorPayload(CodeProto, "unsupported hello")) //nolint:errcheck
		return
	}

	// Subscribe before snapshotting: every record after the snapshot cut is
	// then either in the snapshot (seq ≤ cut) or in the queue (seq > cut),
	// with overlap resolved by the follower skipping seqs it already has.
	l := &link{conn: conn, addr: conn.RemoteAddr().String(),
		kick: make(chan struct{}, 1), stop: make(chan struct{})}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.links[l] = struct{}{}
	p.mu.Unlock()
	replFollowers.Inc()
	defer p.drop(l)

	// The snapshot is a consistent cut: SnapshotBytes quiesces the store,
	// so no record with seq > cut exists before the subscription above.
	snap, snapSeq, err := p.reg.SnapshotBytes()
	if err != nil {
		wire.WriteOpaque(conn, fError, ErrorPayload(CodeApply, err.Error())) //nolint:errcheck
		return
	}
	p.mu.Lock()
	baseBytes := p.bytes
	p.mu.Unlock()
	if lastSeq > snapSeq {
		// The follower's log is ahead of ours: it has history we never
		// wrote (e.g. it used to be a primary).  Shipping anything would
		// fork its log; refuse instead.
		wire.WriteOpaque(conn, fError, ErrorPayload(CodeDiverged, "follower log ahead of primary")) //nolint:errcheck
		return
	}
	if lastSeq == snapSeq {
		snap = nil // already at the cut; baseline-only snapshot phase
	}
	conn.SetDeadline(time.Now().Add(ioTimeout))
	if err := wire.WriteOpaque(conn, fSnapBegin, snapBeginPayload(snapSeq, uint64(len(snap)), baseBytes)); err != nil {
		return
	}
	if err := SendSnapshot(conn, fSnapChunk, fSnapEnd, snap, ioTimeout); err != nil {
		return
	}
	conn.SetDeadline(time.Time{})
	l.markReady()

	// Ack reader: every fAck advances the link's high-water mark and wakes
	// commit waiters.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer l.close()
		var buf []byte
		for {
			typ, payload, err := wire.ReadOpaque(br, &buf)
			if err != nil {
				return
			}
			switch typ {
			case fAck:
				seq, err := DecodeU64(payload, "ack")
				if err != nil {
					return
				}
				for {
					cur := l.acked.Load()
					if seq <= cur || l.acked.CompareAndSwap(cur, seq) {
						break
					}
				}
				p.mu.Lock()
				p.cond.Broadcast()
				p.mu.Unlock()
			case fError:
				return
			}
		}
	}()

	// Writer: flush what no issuer flushed, and heartbeat, until the link
	// dies.
	hb := time.NewTicker(heartbeatEvery)
	defer hb.Stop()
	for {
		var err error
		select {
		case <-l.stop:
			return
		case <-l.kick:
			l.wmu.Lock()
			err = l.flush(time.Now().Add(ioTimeout))
			l.wmu.Unlock()
		case <-hb.C:
			p.mu.Lock()
			seq, bytes := p.lastSeq, p.bytes
			p.mu.Unlock()
			deadline := time.Now().Add(ioTimeout)
			l.wmu.Lock()
			if err = l.flush(deadline); err == nil {
				// flush sets no deadline on an empty queue, and the last
				// write's may have been an issuer's, long expired.
				conn.SetWriteDeadline(deadline)
				err = wire.WriteOpaque(conn, fHeartbeat, heartbeatPayload(seq, bytes))
			}
			l.wmu.Unlock()
		}
		if err != nil {
			return
		}
	}
}

func (p *Primary) drop(l *link) {
	l.close()
	p.mu.Lock()
	_, ok := p.links[l]
	delete(p.links, l)
	p.cond.Broadcast()
	p.mu.Unlock()
	if ok {
		replFollowers.Dec()
		replLinkDrops.Inc()
	}
}

// WaitCommitted blocks until the configured quorum of followers has
// acknowledged seq, the ack timeout expires, or the primary closes.  It is
// the registry's commit waiter: a non-nil return keeps the issued
// challenges on the server.
func (p *Primary) WaitCommitted(seq uint64) error {
	return p.WaitCommittedCtx(context.Background(), seq)
}

// WaitCommittedCtx is WaitCommitted carrying request-scoped observability:
// when ctx holds a dtrace context (injected by the traced issuance path),
// the quorum wait is recorded as a child span — the ack-latency leg of the
// session's distributed trace — and an fTraceMark rides the record stream so
// each follower can record its apply+ack in its own process ring, extending
// the trace tree across machines.  ctx never cancels the wait: the burn is
// journaled, so the quorum verdict must be reached either way.
func (p *Primary) WaitCommittedCtx(ctx context.Context, seq uint64) error {
	tc := dtrace.FromContext(ctx)
	var span *dtrace.Span
	if tc.Valid() {
		span = dtrace.Default.StartSpan(tc, "repl.quorum_wait")
		span.SetAttr("seq", strconv.FormatUint(seq, 10))
		p.shipTraceMark(seq, span.Context())
	}
	err := p.waitCommitted(seq)
	if span != nil {
		if err != nil {
			span.SetStatus("error:" + err.Error())
		} else {
			span.SetStatus("ok")
		}
		span.End()
	}
	return err
}

// shipTraceMark queues a trace marker on every connected follower.  Unlike
// observe, a full queue silently drops the marker instead of killing the
// link: markers are observability, not log.
func (p *Primary) shipTraceMark(seq uint64, tc dtrace.Context) {
	frame := wire.AppendOpaque(nil, fTraceMark, traceMarkPayload(seq, tc.String()))
	p.mu.Lock()
	for l := range p.links {
		l.enqueue(frame)
	}
	p.mu.Unlock()
}

// flushLinks writes every link's queue from the calling issuer, so its
// record leaves without a hop to the link goroutine.  A link whose write
// lock is held is skipped: its holder, or the link goroutine that the
// enqueue kicked, writes the frames.  Each write is bounded by the issuer's
// ack deadline; one that fails drops the link.
func (p *Primary) flushLinks(deadline time.Time) {
	var arr [4]*link
	links := arr[:0]
	p.mu.Lock()
	for l := range p.links {
		links = append(links, l)
	}
	p.mu.Unlock()
	for _, l := range links {
		if !l.wmu.TryLock() {
			continue
		}
		err := l.flush(deadline)
		l.wmu.Unlock()
		if err != nil {
			// Drop the link: its goroutine stops, its ack reader fails on
			// the closed connection, and handle's exit unlinks it.
			l.close()
			l.conn.Close()
		}
	}
}

func (p *Primary) waitCommitted(seq uint64) error {
	if p.cfg.Quorum == 0 {
		return nil
	}
	start := time.Now()
	defer func() { replCommitSeconds.ObserveSince(start) }()
	deadline := start.Add(p.cfg.AckTimeout)
	p.flushLinks(deadline)
	p.mu.Lock()
	defer p.mu.Unlock()
	timer := time.AfterFunc(p.cfg.AckTimeout, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer timer.Stop()
	for {
		if p.closed || len(p.links) == 0 {
			// No followers to wait for.  Strict refuses; semi-sync serves
			// standalone and counts the unreplicated issuance.
			if p.cfg.Strict {
				return linkErrf(CodeShutdown, "%v: no followers connected", ErrQuorum)
			}
			replUnreplicated.Inc()
			return nil
		}
		acked := 0
		for l := range p.links {
			if l.acked.Load() >= seq {
				acked++
			}
		}
		need := p.cfg.Quorum
		if !p.cfg.Strict && need > len(p.links) {
			need = len(p.links)
		}
		if acked >= need {
			return nil
		}
		if time.Now().After(deadline) {
			replCommitTimeout.Inc()
			if p.cfg.Strict {
				return linkErrf(CodeShutdown, "%v: %d/%d acks after %v",
					ErrQuorum, acked, need, p.cfg.AckTimeout)
			}
			return nil // semi-sync: fall back to async, visibly
		}
		p.cond.Wait()
	}
}

// FollowerLink is one connected follower's view in PrimaryStatus.
type FollowerLink struct {
	Addr  string `json:"addr"`
	Acked uint64 `json:"acked_seq"`
	Lag   uint64 `json:"lag_records"`
}

// PrimaryStatus is a point-in-time summary for /healthz and /repl.
type PrimaryStatus struct {
	Seq       uint64         `json:"seq"`
	Quorum    int            `json:"quorum"`
	Strict    bool           `json:"strict"`
	Followers []FollowerLink `json:"followers"`
}

// Status reports the primary's replication state.
func (p *Primary) Status() PrimaryStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PrimaryStatus{Seq: p.lastSeq, Quorum: p.cfg.Quorum, Strict: p.cfg.Strict}
	for l := range p.links {
		acked := l.acked.Load()
		fl := FollowerLink{Addr: l.addr, Acked: acked}
		if p.lastSeq > acked {
			fl.Lag = p.lastSeq - acked
		}
		st.Followers = append(st.Followers, fl)
	}
	return st
}

// Close detaches from the registry, drops every follower link, and stops
// Serve.  Issuance on the registry reverts to local-only journaling.
func (p *Primary) Close() {
	p.unobserve()
	p.reg.SetCommitWaiter(nil)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	ln := p.ln
	for l := range p.links {
		l.close()
		l.conn.Close()
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	p.wg.Wait()
}
