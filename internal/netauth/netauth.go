// Package netauth runs the paper's Fig 7 authentication protocol over a
// network: a verification server that holds the enrolled model database and
// issues freshly selected challenges, and a device client (V2Client) that
// answers them with one-shot XOR readouts.
//
// Wire protocol: the binary frames of package wire over TCP.  Every frame
// carries a CRC32 and a length cap; a frame that fails either check — or a
// connection whose first byte is not wire.Magic, such as a JSON line from a
// retired protocol v1 peer — is answered with a retryable bad_message and
// closed, before admission, so it burns no challenges.  One connection
// multiplexes many sessions:
//
//	device → server   hello       stream s, chip ID, batch k, capability bits
//	server → device   challenges  per stream s..s+k-1: session id, packed challenge bits
//	device → server   responses   per stream: session id, packed response bits
//	server → device   verdict     per stream: approved flag, mismatch count
//
// The server admits the chip once per hello, issues all k sessions'
// challenges through one registry call — one WAL append, one quorum wait —
// and approves a stream only at zero Hamming distance.  A keyex_init first
// frame runs the reverse fuzzy-extractor key exchange instead
// (keyex_server.go), after which the same frames flow inside an AEAD
// channel.
//
// Any failure is an error frame carrying one of the Code* values and a
// retryable flag.  Retryable errors (bad_message, throttled, busy, migrating,
// moved) describe conditions a well-behaved device may retry after backing
// off — a corrupted frame or a momentarily loaded server.  Terminal errors
// (unknown_chip, locked_out, selection_failed, quarantined, key_mismatch)
// will not succeed on retry and the client must give up.  The distinction is
// a security control as much as a reliability one: every authentication
// burns never-reused challenges from the chip's finite budget
// (core.Selector), and unlimited free retries are exactly what
// chosen-challenge and active-learning modeling attacks want.  The server
// therefore supports per-chip throttling (minimum interval between attempts)
// and lockout: K consecutive denied verdicts quarantine the chip —
// subsequent attempts get locked_out without burning challenges — until an
// operator calls Unlock.
//
// Reliability hardening on the server side: per-message (not
// per-connection) I/O deadlines, a cap on concurrent connections, and a
// bounded drain on Close: idle connections close at once, sessions whose
// challenges are out still get their verdicts.  The client side (V2Client)
// retries transient failures with jittered exponential backoff under a
// bounded attempt budget and honours context cancellation through dial,
// read, and write.
//
// The server never reveals which bits mismatched beyond the count, and
// every authentication uses fresh challenges, so transcripts leak only
// what the paper's threat model already concedes (challenge, XOR response)
// — the modeling-attack tests in internal/authproto quantify that leakage.
package netauth

import (
	"bufio"
	crand "crypto/rand"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xorpuf/internal/core"
	"xorpuf/internal/health"
	"xorpuf/internal/keyex"
	"xorpuf/internal/registry"
	"xorpuf/internal/telemetry"
	"xorpuf/internal/telemetry/dtrace"
)

// randomSessionIDs fills b with crypto-random session identifiers
// (wire.SessionLen bytes each).  Session IDs go out on the wire, so they
// must not be drawn from the deterministic simulation PRNG: SplitMix64's
// output function is an invertible bijection, and a single emitted output
// would hand an eavesdropper the stream state and every subsequent draw.
func randomSessionIDs(b []byte) {
	if _, err := crand.Read(b); err != nil {
		// The kernel CSPRNG is unavailable: no secure session is possible.
		panic("netauth: system random source unavailable: " + err.Error())
	}
}

// Error codes carried in the wire envelope's "code" field.
const (
	// CodeBadMessage: a frame failed to parse, had the wrong type, a bad
	// session ID, a non-bit response, or the wrong response count.
	// Retryable — in-flight corruption is indistinguishable from a buggy
	// peer, and a fresh session uses fresh challenges anyway.
	CodeBadMessage = "bad_message"
	// CodeUnknownChip: the chip ID is not in the model database.  Terminal.
	CodeUnknownChip = "unknown_chip"
	// CodeThrottled: the chip attempted again before the per-chip minimum
	// interval elapsed.  Retryable after backoff.
	CodeThrottled = "throttled"
	// CodeLockedOut: the chip hit K consecutive denials and is
	// quarantined.  Terminal until an operator calls Unlock.
	CodeLockedOut = "locked_out"
	// CodeBusy: the server is at its concurrent-session cap.  Retryable.
	CodeBusy = "busy"
	// CodeSelectionFailed: the server could not issue fresh challenges —
	// typically the chip's lifetime CRP budget is exhausted.  Terminal.
	CodeSelectionFailed = "selection_failed"
	// CodeQuarantined: the chip's drift detectors classified it quarantined
	// — its responses have drifted out of the enrolled model.  Terminal
	// until re-enrollment; the denial burns no challenges, and the
	// acceptance threshold is never loosened instead (a softened threshold
	// is the side channel reliability-based modeling attacks feed on).
	CodeQuarantined = "quarantined"
	// CodeKeyMismatch: the peer's key-confirmation MAC did not verify — it
	// could not reproduce the session key from the helper data, which is
	// exactly what a modeling adversary holding a stolen chip ID looks
	// like.  Terminal, and it counts toward lockout like a denied
	// authentication.
	CodeKeyMismatch = "key_mismatch"
	// CodeKeyexUnavailable: the client asked for a key exchange but the
	// server has none configured.  Terminal for this server.
	CodeKeyexUnavailable = "keyex_unavailable"
	// CodeMigrating: the chip's range is mid-handoff to another shard — the
	// issuance fence is up, or the chip is still arriving at this server.
	// Retryable after a short backoff; the fence window is bounded.
	CodeMigrating = "migrating"
	// CodeMoved: the chip's range was migrated away and this server will
	// never issue for it again.  Retryable — at the address in the error
	// frame's "redirect" field, not here.
	CodeMoved = "moved"
)

// ProtocolError is a structured error the server reported over the wire.
type ProtocolError struct {
	Code      string
	Message   string
	Retryable bool
	// Redirect accompanies a "moved" error: the address that now owns the
	// chip's range.  Clients dialing shards directly should re-dial there;
	// clients behind a gateway never see it (the gateway follows it).
	Redirect string
}

func (e *ProtocolError) Error() string {
	kind := "terminal"
	if e.Retryable {
		kind = "retryable"
	}
	return fmt.Sprintf("netauth: server error [%s, %s]: %s", e.Code, kind, e.Message)
}

// Server is the verification authority: it decides authentications against
// an enrolled model database held in a registry.Registry — a sharded,
// optionally persistent store whose WAL keeps both the enrollments and the
// never-reuse challenge history alive across server restarts.
type Server struct {
	numChallenges int

	mu         sync.Mutex
	msgTimeout time.Duration
	maxConns   int
	lockoutK   int
	throttle   time.Duration
	drain      time.Duration
	budget     int
	now        func() time.Time

	// keyexOn/keyexCfg enable the reverse fuzzy-extractor key exchange
	// (SetKeyExchange); off by default, so the server refuses keyex_init
	// with a structured keyex_unavailable.
	keyexOn  bool
	keyexCfg keyex.Config

	reg    *registry.Registry
	ownReg bool // Close also closes reg when the server created it
	ln     net.Listener
	// conns holds every admitted connection with its count of in-flight
	// work — streams whose challenges are out, or a key exchange — set to
	// -1 once Close has claimed it idle.  closed is read lock-free by
	// every event loop, so a draining connection leaves as soon as its
	// last verdict is out.
	conns   map[net.Conn]*atomic.Int32
	closed  atomic.Bool
	serving sync.WaitGroup

	// healthHandler observes drift-detector transitions (SetHealthHandler).
	healthHandler func(health.Event)

	// tel is the captured instrument set (nil = telemetry disabled).  Read
	// without s.mu on the hot path, so it may only be swapped before Serve
	// (SetTelemetry documents this).
	tel *serverMetrics

	// sessions is the per-session record ring behind /traces: every
	// session of every kind — approved, denied, refused, key exchange —
	// ends as exactly one span here, traced or not.
	sessions *dtrace.Recorder

	// sessionObs, when set, observes every finished session on the
	// session goroutine — the anomaly detector's feed.  Like tel it is
	// read without s.mu on the hot path, so it may only be set before
	// Serve.
	sessionObs func(chipID string, challenges int, denied bool)

	// spans is the distributed-trace span ring sessions record into when a
	// hello carries a trace context (dtrace.Default unless swapped).  Read
	// without s.mu on the hot path; swap only before Serve
	// (SetSpanRecorder).  A session without a context never touches it, so
	// untraced volume cannot evict the traced trees `puflab trace
	// collect` reads.
	spans *dtrace.Recorder

	// decisions counts completed authentications, for tests/monitoring.
	decisions struct {
		approved, denied int
	}
}

// NewServer creates a server with a volatile in-memory model database that
// authenticates with numChallenges CRPs per decision.  seed drives the
// registry's challenge selection; session IDs and key-exchange codewords
// come from the kernel CSPRNG.  Throttling, lockout, the connection cap, and
// the per-chip challenge budget are off by default; enable them with the
// setters before Serve.  For a database that survives restarts, open a
// persistent registry.Registry and use NewServerWithRegistry.
func NewServer(numChallenges int, seed uint64) *Server {
	reg, err := registry.Open("", registry.Options{Seed: seed})
	if err != nil {
		panic("netauth: in-memory registry open failed: " + err.Error())
	}
	s := NewServerWithRegistry(numChallenges, seed, reg)
	s.ownReg = true
	return s
}

// NewServerWithRegistry creates a server over an existing registry —
// typically one recovered from disk with enrollments (and issued-challenge
// state) from a previous process lifetime, or filled by the fleet pipeline.
// seed is retained for call-site compatibility and no longer feeds any
// generator here — session IDs and key-exchange codewords come from the
// kernel CSPRNG, never from a deterministic stream whose state wire output
// would reveal.  The caller keeps ownership of reg: Close drains
// connections but leaves reg open.
func NewServerWithRegistry(numChallenges int, seed uint64, reg *registry.Registry) *Server {
	if numChallenges <= 0 {
		panic("netauth: numChallenges must be positive")
	}
	if reg == nil {
		panic("netauth: nil registry")
	}
	return &Server{
		numChallenges: numChallenges,
		msgTimeout:    10 * time.Second,
		drain:         5 * time.Second,
		now:           time.Now,
		reg:           reg,
		conns:         make(map[net.Conn]*atomic.Int32),
		tel:           newServerMetrics(telemetry.Default),
		sessions:      dtrace.NewRecorder(sessionRingCapacity),
		spans:         dtrace.Default,
	}
}

// sessionRingCapacity is how many recent session records a server retains.
const sessionRingCapacity = 256

// SetTelemetry rebinds the server's instruments to reg; nil disables
// server-side metrics entirely (the bare arm of the overhead benchmark).
// Call before Serve — the instrument set is read without a lock on the
// session hot path.
func (s *Server) SetTelemetry(reg *telemetry.Registry) {
	s.tel = newServerMetrics(reg)
}

// SetSpanRecorder replaces the distributed-trace span ring (default
// dtrace.Default); nil disables span trees even for sessions that carry a
// trace context (their session records still land in SessionRecorder).
// Call before Serve — like tel it is read without a lock on the session
// hot path.
func (s *Server) SetSpanRecorder(r *dtrace.Recorder) { s.spans = r }

// SessionRecorder returns the per-session record ring — the admin /traces
// endpoint serves it through dtrace.Handler.
func (s *Server) SessionRecorder() *dtrace.Recorder { return s.sessions }

// SetSessionObserver registers fn to observe every finished session —
// including sessions refused before a verdict (unknown chip, throttled,
// locked out), which is exactly the traffic an attack-pattern detector
// must see.  challenges is how many the session burned; denied is true
// unless the session ended ok (an approval or an established key).  The
// signature is slo.AnomalyDetector.ObserveSession's.  fn runs on the
// session goroutine after the wire exchange is complete; keep it fast or
// hand off.  Call before Serve.
func (s *Server) SetSessionObserver(fn func(chipID string, challenges int, denied bool)) {
	s.sessionObs = fn
}

// ForceLockout locks a chip immediately, without waiting for K consecutive
// denials — the enforcement half of a suspected-modeling-attack alert.
// Subsequent attempts fail with locked_out and burn no challenges until an
// operator calls Unlock.  It reports whether the chip exists and was not
// already locked.
func (s *Server) ForceLockout(chipID string) bool {
	e := s.reg.Lookup(chipID)
	if e == nil {
		return false
	}
	if locked := e.Lock(); locked {
		s.tel.lockout()
		return true
	}
	return false
}

// Registry exposes the backing model database (for operator tooling).
func (s *Server) Registry() *registry.Registry { return s.reg }

// SetTimeout changes the per-message I/O deadline (default 10 s).  Unlike a
// per-connection deadline, a slow client cannot bank unused time from one
// message against the next.
func (s *Server) SetTimeout(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.msgTimeout = d
}

// SetMaxConns caps concurrent authentication sessions; excess connections
// are refused with a retryable busy error.  0 (the default) is unlimited.
func (s *Server) SetMaxConns(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxConns = n
}

// SetLockout quarantines a chip after k consecutive denied verdicts:
// further attempts fail with locked_out — burning no challenges — until
// Unlock.  A chip under modeling attack stops feeding the attacker CRPs.
// k = 0 (the default) disables lockout.
func (s *Server) SetLockout(k int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lockoutK = k
}

// SetThrottle enforces a minimum interval between authentication attempts
// per chip; faster attempts fail with a retryable throttled error.  0 (the
// default) disables throttling.
func (s *Server) SetThrottle(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.throttle = d
}

// SetDrainTimeout bounds how long Close waits for sessions whose
// challenges are out before force-closing their connections (default
// 5 s).
func (s *Server) SetDrainTimeout(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drain = d
}

// SetChallengeBudget caps the lifetime number of challenges issued per
// chip, for chips registered after the call.  0 (the default) is
// unlimited.  Budget exhaustion is terminal (selection_failed): the chip
// must be re-enrolled.
func (s *Server) SetChallengeBudget(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.budget = n
}

// SetHealthHandler registers fn to observe health-state transitions fired
// by authentication traffic (a chip degrading or quarantining).  fn runs on
// the session goroutine after the verdict is sent; keep it fast or hand off
// — a fleet.ReEnroller's Handle is the intended consumer.
func (s *Server) SetHealthHandler(fn func(health.Event)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.healthHandler = fn
}

// Register adds an enrolled chip model under an identifier, applying the
// server's per-chip challenge budget.  When the backing registry is
// persistent, the registration is journaled before Register returns.
func (s *Server) Register(chipID string, model *core.ChipModel) error {
	s.mu.Lock()
	budget := s.budget
	s.mu.Unlock()
	if err := s.reg.Register(chipID, model, budget); err != nil {
		if errors.Is(err, registry.ErrDuplicate) {
			return fmt.Errorf("netauth: chip %q already registered", chipID)
		}
		return fmt.Errorf("netauth: %w", err)
	}
	return nil
}

// Deregister revokes a chip's enrollment: subsequent authentication attempts
// fail with unknown_chip.  It reports whether the chip was registered.  Use
// it to retire distrusted or budget-exhausted silicon without restarting the
// server.
func (s *Server) Deregister(chipID string) bool {
	return s.reg.Deregister(chipID)
}

// ChipStatus is the server's per-chip abuse-control and budget accounting.
type ChipStatus struct {
	Registered bool
	// Issued is how many distinct challenges the chip has burned.
	Issued int
	// Remaining is the unissued remainder of the challenge budget, or -1
	// if the chip is unbudgeted.
	Remaining int
	// ConsecutiveDenials counts denied verdicts since the last approval.
	ConsecutiveDenials int
	// Locked reports whether the chip is locked out for consecutive
	// denials (abuse control).
	Locked bool
	// Health is the chip's drift classification; Quarantined chips are
	// refused with CodeQuarantined until re-enrolled.
	Health health.State
}

// ChipStatus reports the abuse-control state of a registered chip.
func (s *Server) ChipStatus(chipID string) ChipStatus {
	e := s.reg.Lookup(chipID)
	if e == nil {
		return ChipStatus{}
	}
	st := e.Status()
	return ChipStatus{
		Registered:         true,
		Issued:             st.Issued,
		Remaining:          st.Remaining,
		ConsecutiveDenials: st.Denials,
		Locked:             st.Locked,
		Health:             st.Health,
	}
}

// Unlock lifts a chip's lockout (an operator decision after investigating
// the denial streak).  It reports whether the chip was locked.
func (s *Server) Unlock(chipID string) bool {
	e := s.reg.Lookup(chipID)
	return e != nil && e.Unlock()
}

// Stats returns the approved/denied decision counts so far.
func (s *Server) Stats() (approved, denied int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.decisions.approved, s.decisions.denied
}

// Serve accepts connections on ln until Close.  It blocks; run it in a
// goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return errors.New("netauth: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		inflight := new(atomic.Int32)
		s.mu.Lock()
		closed := s.closed.Load()
		busy := s.maxConns > 0 && len(s.conns) >= s.maxConns
		if !closed && !busy {
			s.conns[conn] = inflight
		}
		s.mu.Unlock()
		if closed {
			conn.Close() // accepted as Close ran: it would never be drained
			continue
		}
		s.serving.Add(1)
		if busy {
			s.tel.deny(CodeBusy)
			go func() {
				defer s.serving.Done()
				defer conn.Close()
				l := s.newLink(conn, nil, conn, s.tel.frame)
				defer l.release()
				l.fail(0, CodeBusy, true, "server at concurrent-session capacity")
			}()
			continue
		}
		go func() {
			defer s.serving.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.handle(conn, inflight)
		}()
	}
}

// Close stops accepting and closes idle connections at once — persistent
// ones sit between batches for longer than any drain window, and their
// clients own the retry.  A connection with work in flight finishes it
// (new hellos are refused busy) and leaves after its last verdict; what is
// still open when the drain timeout expires is force-closed.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed.Store(true)
	ln := s.ln
	drain := s.drain
	for conn, inflight := range s.conns {
		if inflight.CompareAndSwap(0, -1) {
			conn.Close()
		}
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.serving.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drain):
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
	}
	if s.ownReg {
		_ = s.reg.Close()
	}
}

// handle serves one admitted connection: the frame event loop, until the
// peer leaves, a frame is malformed, a refusal ends the connection, or a
// draining server has settled the connection's streams.
func (s *Server) handle(conn net.Conn, inflight *atomic.Int32) {
	defer conn.Close()
	l := s.newLink(conn, bufio.NewReader(conn), conn, s.tel.frame)
	l.inflight = inflight
	defer l.release()
	s.serveFrames(l, "", dtrace.Context{})
}

// startSession opens one session's record.  A traced session (tc valid)
// gets its span in the s.spans tree, so its children nest under it; an
// untraced one gets a bare span — no trace ID, no CSPRNG read — that only
// ever enters the session ring.
func (s *Server) startSession(tc dtrace.Context, name, chipID string, start time.Time) dtrace.Span {
	s.tel.sessionStart()
	rec := dtrace.Span{Name: name, Start: start}
	if sp := s.spans.StartSpanAt(tc, name, start); sp != nil {
		rec = *sp
	}
	rec.SetAttr("chip", chipID)
	rec.SetAttr("proto", "v2")
	return rec
}

// endSession closes one session's record — the single sink for every
// session kind — with one status vocabulary: "ok" for approvals and
// established keys, "denied" for mismatch verdicts and failed key
// confirmations, "refused:<code>" for structured refusals.  The record
// lands in the session ring (and, when traced, the s.spans tree), then
// the session observer sees it.
func (s *Server) endSession(rec *dtrace.Span, chipID string, challenges int, status string) {
	s.tel.sessionEnd(rec.Start, exemplar(rec.Trace))
	rec.SetAttr("challenges", strconv.Itoa(challenges))
	rec.SetStatus(status)
	rec.End()
	s.sessions.Record(*rec)
	if s.sessionObs != nil {
		s.sessionObs(chipID, challenges, status != "ok")
	}
}

// usAttr renders a duration as a whole-microsecond span attribute.
func usAttr(d time.Duration) string { return strconv.FormatInt(d.Microseconds(), 10) }

// refusal is a structured admission denial: the decision, kept apart from
// the error frame that carries it.
type refusal struct {
	code      string
	retryable bool
	redirect  string
	msg       string
}

// admitChip runs admission control — ownership, existence, lockout,
// throttle, drift quarantine — and returns either the chip's registry
// entry or the refusal to send.  The per-chip state lives in the registry
// entry, so sessions for different chips contend only on their own entry
// (and shard), not a global lock.  Used for every hello — plain or inside
// a key-exchange channel — and every keyex_init.
func (s *Server) admitChip(chipID string) (*registry.Entry, *refusal) {
	s.mu.Lock()
	lockoutK := s.lockoutK
	throttle := s.throttle
	now := s.now()
	s.mu.Unlock()
	// Ownership first: a departed chip has no entry here, and reporting it
	// as unknown would read as terminal to a client that only needs to
	// follow the redirect.  Mid-handoff states are retryable by definition.
	switch st, redirect := s.reg.Ownership(chipID); st {
	case registry.OwnershipDeparted:
		return nil, &refusal{code: CodeMoved, retryable: true, redirect: redirect,
			msg: fmt.Sprintf("chip %q migrated to %s", chipID, redirect)}
	case registry.OwnershipFenced, registry.OwnershipArriving:
		return nil, &refusal{code: CodeMigrating, retryable: true,
			msg: fmt.Sprintf("chip %q is mid-migration; retry shortly", chipID)}
	}
	entry := s.reg.Lookup(chipID)
	if entry == nil {
		return nil, &refusal{code: CodeUnknownChip,
			msg: fmt.Sprintf("unknown chip %q", chipID)}
	}
	locked, throttled := entry.Admit(now, throttle)
	switch {
	case locked:
		return nil, &refusal{code: CodeLockedOut,
			msg: fmt.Sprintf("chip %q is locked out after %d consecutive denials", chipID, lockoutK)}
	case throttled:
		return nil, &refusal{code: CodeThrottled, retryable: true,
			msg: fmt.Sprintf("chip %q attempting too fast", chipID)}
	}
	// Drift quarantine: an explicit structured denial BEFORE any challenge
	// is drawn, so a drifted chip neither burns budget nor feeds CRPs to
	// whoever holds it.  The zero-HD acceptance criterion is never loosened
	// for a drifting chip — re-enrollment is the only way back.
	if entry.HealthState() == health.Quarantined {
		return nil, &refusal{code: CodeQuarantined,
			msg: fmt.Sprintf("chip %q is quarantined for drift; re-enrollment required", chipID)}
	}
	return entry, nil
}

// applyVerdict runs every side effect of one authentication verdict —
// the lockout streak, the drift detectors, decision counters, and verdict
// telemetry.  The caller queues the verdict frame and then fires the
// returned health handler if a transition occurred.
func (s *Server) applyVerdict(entry *registry.Entry, lockoutK int, approved bool, mismatches, nchal int) (health.Event, bool, func(health.Event)) {
	nowLocked := entry.Verdict(approved, lockoutK)
	if !approved && nowLocked {
		s.tel.lockout()
	}
	ev, transitioned := entry.RecordAuth(health.Outcome{
		Approved: approved, Mismatches: mismatches, Challenges: nchal,
	})
	s.tel.verdict(approved)
	s.mu.Lock()
	if approved {
		s.decisions.approved++
	} else {
		s.decisions.denied++
	}
	onHealth := s.healthHandler
	s.mu.Unlock()
	return ev, transitioned, onHealth
}

// issueRefusal classifies an issuance error: a fence raised between
// admission and issuance is the bounded handoff window (retryable
// migrating), anything else a chip that cannot be served (terminal
// selection_failed).
func issueRefusal(err error) (code string, retryable bool) {
	if errors.Is(err, registry.ErrMigrating) {
		return CodeMigrating, true
	}
	return CodeSelectionFailed, false
}
