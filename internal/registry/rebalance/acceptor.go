package rebalance

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"xorpuf/internal/registry"
	"xorpuf/internal/registry/repl"
	"xorpuf/internal/wire"
)

// AcceptorConfig parameterizes the target side of migrations.
type AcceptorConfig struct {
	// SessionTimeout bounds inactivity on one migration session (default 30s).
	SessionTimeout time.Duration
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...interface{})
}

// Acceptor serves inbound migrations on a listener: each connection is one
// source session (hello → snapshot → deltas → cutover).  The acceptor is the
// authority on migration outcome: a cutover exists once — and only once —
// its journal holds the recCutover record, and the acknowledgement that
// releases the source is sent only after that record is both journaled and
// quorum-acked by the target's own followers.  A source reconnecting after
// any crash learns the outcome from the hello exchange.
type Acceptor struct {
	reg *registry.Registry
	cfg AcceptorConfig
	ln  net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewAcceptor starts serving migrations on ln.
func NewAcceptor(reg *registry.Registry, ln net.Listener, cfg AcceptorConfig) *Acceptor {
	if cfg.SessionTimeout <= 0 {
		cfg.SessionTimeout = 30 * time.Second
	}
	a := &Acceptor{reg: reg, cfg: cfg, ln: ln, conns: make(map[net.Conn]struct{})}
	a.wg.Add(1)
	go a.acceptLoop()
	return a
}

// Addr returns the listener address.
func (a *Acceptor) Addr() net.Addr { return a.ln.Addr() }

// Close stops accepting and tears down live sessions.
func (a *Acceptor) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	for c := range a.conns {
		c.Close()
	}
	a.mu.Unlock()
	err := a.ln.Close()
	a.wg.Wait()
	return err
}

func (a *Acceptor) logf(format string, args ...interface{}) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}

func (a *Acceptor) acceptLoop() {
	defer a.wg.Done()
	for {
		conn, err := a.ln.Accept()
		if err != nil {
			return
		}
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			conn.Close()
			return
		}
		a.conns[conn] = struct{}{}
		a.wg.Add(1)
		a.mu.Unlock()
		go func() {
			defer a.wg.Done()
			a.serve(conn)
			a.mu.Lock()
			delete(a.conns, conn)
			a.mu.Unlock()
		}()
	}
}

func (a *Acceptor) serve(conn net.Conn) {
	defer conn.Close()
	if err := a.session(conn); err != nil && !errors.Is(err, io.EOF) {
		// Payload decode errors come from repl's shared layouts as
		// LinkErrors and bad frames from the wire codec; both are protocol
		// faults of the source, not apply failures here.
		var me *MigError
		var le *repl.LinkError
		switch {
		case errors.As(err, &me):
			_ = wire.WriteOpaque(conn, mError, repl.ErrorPayload(me.Code, me.Msg))
		case errors.As(err, &le):
			_ = wire.WriteOpaque(conn, mError, repl.ErrorPayload(CodeProto, le.Msg))
		case errors.Is(err, wire.ErrFrame):
			_ = wire.WriteOpaque(conn, mError, repl.ErrorPayload(CodeProto, err.Error()))
		case !isNetClose(err):
			_ = wire.WriteOpaque(conn, mError, repl.ErrorPayload(CodeApply, err.Error()))
		}
		a.logf("rebalance acceptor: session from %s: %v", conn.RemoteAddr(), err)
	}
}

func isNetClose(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) || errors.Is(err, net.ErrClosed)
}

func (a *Acceptor) session(conn net.Conn) error {
	br := bufio.NewReaderSize(conn, 1<<16)
	var buf []byte
	_ = conn.SetDeadline(time.Now().Add(a.cfg.SessionTimeout))
	typ, payload, err := wire.ReadOpaque(br, &buf)
	if err != nil {
		return err
	}
	if typ != mHello {
		return migErrf(CodeProto, "expected hello, got frame type %d", typ)
	}
	version, helloEpoch, migID, lo, hi, err := decodeHello(payload)
	if err != nil {
		return err
	}
	if version != protocolVersion {
		return migErrf(CodeProto, "protocol version %d, want %d", version, protocolVersion)
	}
	if migID == "" {
		return migErrf(CodeProto, "empty migration ID")
	}

	// Outcome resolution: if this migration already cut over here, say so —
	// but only after the cutover record is quorum-committed, because telling
	// the source "I own the range" releases it to drop its copy.
	if epoch, done := a.reg.MigrationCutover(migID); done {
		if err := a.reg.WaitCommitted(a.reg.Seq()); err != nil {
			return migErrf(CodeQuorum, "cutover not yet quorum-committed: %v", err)
		}
		return wire.WriteOpaque(conn, mHelloAck, helloAckPayload(helloCutover, epoch))
	}
	if err := wire.WriteOpaque(conn, mHelloAck, helloAckPayload(helloFresh, a.reg.OwnershipEpoch())); err != nil {
		return err
	}

	// Snapshot phase.
	_ = conn.SetDeadline(time.Now().Add(a.cfg.SessionTimeout))
	typ, payload, err = wire.ReadOpaque(br, &buf)
	if err != nil {
		return err
	}
	switch typ {
	case mAbort:
		a.logf("rebalance acceptor: migration %s aborted by source: %s", migID, payload)
		return a.reg.AbortMigrationIn(migID)
	case mSnapBegin:
	default:
		return migErrf(CodeProto, "expected snap-begin, got frame type %d", typ)
	}
	cutSeq, dataLen, count, err := decodeSnapBegin(payload)
	if err != nil {
		return err
	}
	data, err := repl.ReceiveSnapshot(conn, br, &buf, mSnapChunk, mSnapEnd, dataLen, a.cfg.SessionTimeout)
	if err != nil {
		return err
	}
	installed, err := a.reg.InstallMigrating(migID, lo, hi, data)
	if err != nil {
		return migErrf(CodeApply, "installing %d-chip snapshot: %v", count, err)
	}
	a.logf("rebalance acceptor: migration %s installed %d arriving chips [%q,%q)", migID, installed, lo, hi)
	// Ack the install so the source moves to streaming.
	if err := wire.WriteOpaque(conn, mDeltaAck, repl.U64Payload(cutSeq)); err != nil {
		return err
	}

	// Delta phase: journal-then-ack, exactly like a repl follower — the
	// source treats an ack as "this burn is durable at the target".
	for {
		_ = conn.SetDeadline(time.Now().Add(a.cfg.SessionTimeout))
		typ, payload, err = wire.ReadOpaque(br, &buf)
		if err != nil {
			return err
		}
		switch typ {
		case mDelta:
			srcSeq, rectype, rec, err := repl.DecodeRecord(payload)
			if err != nil {
				return err
			}
			if _, err := a.reg.ApplyMigrated(migID, rectype, rec); err != nil {
				return migErrf(CodeApply, "delta seq %d: %v", srcSeq, err)
			}
			if err := wire.WriteOpaque(conn, mDeltaAck, repl.U64Payload(srcSeq)); err != nil {
				return err
			}
		case mCutover:
			if _, err := repl.DecodeU64(payload, "cutover"); err != nil {
				return err
			}
			// Epoch rule: strictly above both the source's proposal and our
			// own history, so a swapped gateway table can reject staleness.
			epoch := a.reg.OwnershipEpoch() + 1
			if helloEpoch > epoch {
				epoch = helloEpoch
			}
			seq, err := a.reg.CutoverTarget(migID, epoch)
			if err != nil {
				return migErrf(CodeApply, "target cutover: %v", err)
			}
			if err := a.reg.WaitCommitted(seq); err != nil {
				return migErrf(CodeQuorum, "cutover quorum: %v", err)
			}
			a.logf("rebalance acceptor: migration %s cut over at epoch %d", migID, epoch)
			return wire.WriteOpaque(conn, mCutoverAck, repl.U64Payload(epoch))
		case mAbort:
			a.logf("rebalance acceptor: migration %s aborted by source: %s", migID, payload)
			return a.reg.AbortMigrationIn(migID)
		default:
			return migErrf(CodeProto, "unexpected frame type %d in delta phase", typ)
		}
	}
}
