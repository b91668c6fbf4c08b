package repl

import (
	"bufio"
	"context"
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

// link is one connected follower.
type link struct {
	conn  net.Conn
	addr  string
	ch    chan shipped
	stop  chan struct{}
	once  sync.Once
	acked atomic.Uint64
}

// shipped is one record frame fanned out to followers.  The frame bytes are
// shared read-only across links.
type shipped struct {
	seq   uint64
	frame []byte
}

func (l *link) close() {
	l.once.Do(func() { close(l.stop) })
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

// observe runs under the registry's journal lock: it must only do the
// per-link fan-out.  A follower whose buffer is full is marked dead here
// (its writer notices and drops the link) — blocking would stall every
// journal append in the process.
func (p *Primary) observe(seq uint64, typ byte, payload []byte) {
	frame := wire.AppendOpaque(nil, fRecord, RecordPayload(seq, typ, payload))
	p.mu.Lock()
	p.lastSeq = seq
	p.bytes += uint64(len(frame))
	for l := range p.links {
		select {
		case l.ch <- shipped{seq: seq, frame: frame}:
		default:
			l.close() // overflow: terminal for the link, never for the log
		}
	}
	p.mu.Unlock()
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
	// then either in the snapshot (seq ≤ cut) or in the buffer (seq > cut),
	// with overlap resolved by the follower skipping seqs it already has.
	l := &link{conn: conn, addr: conn.RemoteAddr().String(),
		ch: make(chan shipped, linkBuffer), stop: make(chan struct{})}
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

	// Writer: stream buffered records and heartbeats until the link dies.
	hb := time.NewTicker(heartbeatEvery)
	defer hb.Stop()
	for {
		select {
		case <-l.stop:
			return
		case sh := <-l.ch:
			if sh.seq <= snapSeq {
				continue // the snapshot already covers it
			}
			conn.SetWriteDeadline(time.Now().Add(ioTimeout))
			if _, err := conn.Write(sh.frame); err != nil {
				return
			}
		case <-hb.C:
			p.mu.Lock()
			seq, bytes := p.lastSeq, p.bytes
			p.mu.Unlock()
			conn.SetWriteDeadline(time.Now().Add(ioTimeout))
			if err := wire.WriteOpaque(conn, fHeartbeat, heartbeatPayload(seq, bytes)); err != nil {
				return
			}
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

// shipTraceMark fans a trace marker to every connected follower.  Unlike
// observe, a full buffer silently drops the marker instead of killing the
// link: markers are observability, not log.
func (p *Primary) shipTraceMark(seq uint64, tc dtrace.Context) {
	frame := wire.AppendOpaque(nil, fTraceMark, traceMarkPayload(seq, tc.String()))
	p.mu.Lock()
	for l := range p.links {
		select {
		case l.ch <- shipped{seq: seq, frame: frame}:
		default:
		}
	}
	p.mu.Unlock()
}

func (p *Primary) waitCommitted(seq uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cfg.Quorum == 0 {
		return nil
	}
	start := time.Now()
	defer func() { replCommitSeconds.ObserveSince(start) }()
	deadline := start.Add(p.cfg.AckTimeout)
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
