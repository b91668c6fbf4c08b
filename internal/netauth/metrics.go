// Telemetry wiring for the authentication hot path.  Every instrument is
// looked up once, here, and incremented through nil-guarded helpers, so a
// server with telemetry disabled (SetTelemetry(nil)) pays one predictable
// branch per event and the instrumented path allocates nothing per session.
//
// Server metric catalog:
//
//	netauth_sessions_started_total    sessions opened (one per hello stream
//	                                  or key exchange, refused ones included)
//	netauth_sessions_completed_total  sessions that reached a verdict
//	netauth_approved_total            zero-HD approvals
//	netauth_denied_total              mismatch denials
//	netauth_lockouts_total            lockout transitions (K-th denial)
//	netauth_deny_<code>_total         structured wire errors, per Code*
//	netauth_active_sessions           gauge of in-flight sessions
//	netauth_frame_bytes               wire frame sizes, both directions
//	netauth_device_rtt_seconds        challenges-out → responses-in
//	netauth_select_seconds            challenge selection latency
//	netauth_session_seconds           whole-session latency
//	netauth_keyex_started_total       key exchanges admitted
//	netauth_keyex_established_total   mutually key-confirmed sessions
//	netauth_keyex_rejected_total      failed device key confirmations
//	netauth_keyex_derive_seconds      select + BCH encode + key schedule
//	netauth_secure_frame_bytes        encrypted-channel inner frame sizes
//	netauth_payload_bytes             application payload sizes
//	netauth_v2_batches_total          multiplexed hello batches
//	netauth_batch_size                sessions per hello batch
//	netauth_v2_pipelined_session_seconds  per-session latency on the
//	                                  pipelined (batch > 1) path
//
// netauth_session_seconds and netauth_v2_pipelined_session_seconds carry a
// distributed-trace exemplar: the most recent traced observation's trace ID
// rides the JSON snapshot so an SLO alert can point at a concrete
// offending session (`puflab trace show <id>`).
//
// Client metric catalog (package-level, always on — a handful of atomic
// adds per session, invisible next to a TCP round trip):
//
//	netauth_client_attempts_total     protocol attempts, incl. first tries
//	netauth_client_retries_total      attempts beyond each session's first
//	netauth_client_sessions_total     Authenticate calls that returned
//	netauth_client_failures_total     Authenticate calls that returned error
//	netauth_client_session_seconds    whole-call latency, incl. backoff
package netauth

import (
	"time"

	"xorpuf/internal/telemetry"
	"xorpuf/internal/telemetry/dtrace"
)

// exemplar renders a session's trace ID as its histogram exemplar: empty
// for an untraced session.
func exemplar(t dtrace.TraceID) string {
	if t.IsZero() {
		return ""
	}
	return t.String()
}

// serverMetrics holds the server's captured instruments.  A nil
// *serverMetrics is the disabled state; every method guards for it.
type serverMetrics struct {
	sessionsStarted   *telemetry.Counter
	sessionsCompleted *telemetry.Counter
	approved          *telemetry.Counter
	denied            *telemetry.Counter
	lockouts          *telemetry.Counter
	denials           map[string]*telemetry.Counter
	denialOther       *telemetry.Counter
	activeSessions    *telemetry.Gauge
	frameBytes        *telemetry.Histogram
	deviceRTT         *telemetry.Histogram
	selectSeconds     *telemetry.Histogram
	sessionSeconds    *telemetry.Histogram

	keyexStarted     *telemetry.Counter
	keyexEstablished *telemetry.Counter
	keyexRejected    *telemetry.Counter
	keyexDerive      *telemetry.Histogram
	secureFrameBytes *telemetry.Histogram
	payloadBytes     *telemetry.Histogram
	batches          *telemetry.Counter
	batchSize        *telemetry.Histogram
	pipelined        *telemetry.Histogram
}

// batchSizeBuckets covers the hello batch field's useful range (the
// protocol caps a batch at wire.MaxBatch = 256) in powers of two.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	if reg == nil {
		return nil
	}
	m := &serverMetrics{
		sessionsStarted:   reg.Counter("netauth_sessions_started_total"),
		sessionsCompleted: reg.Counter("netauth_sessions_completed_total"),
		approved:          reg.Counter("netauth_approved_total"),
		denied:            reg.Counter("netauth_denied_total"),
		lockouts:          reg.Counter("netauth_lockouts_total"),
		denials:           make(map[string]*telemetry.Counter, len(codes)),
		denialOther:       reg.Counter("netauth_deny_other_total"),
		activeSessions:    reg.Gauge("netauth_active_sessions"),
		frameBytes:        reg.Histogram("netauth_frame_bytes", telemetry.SizeBuckets),
		deviceRTT:         reg.Histogram("netauth_device_rtt_seconds", telemetry.LatencyBuckets),
		selectSeconds:     reg.Histogram("netauth_select_seconds", telemetry.LatencyBuckets),
		sessionSeconds:    reg.Histogram("netauth_session_seconds", telemetry.LatencyBuckets),
		keyexStarted:      reg.Counter("netauth_keyex_started_total"),
		keyexEstablished:  reg.Counter("netauth_keyex_established_total"),
		keyexRejected:     reg.Counter("netauth_keyex_rejected_total"),
		keyexDerive:       reg.Histogram("netauth_keyex_derive_seconds", telemetry.LatencyBuckets),
		secureFrameBytes:  reg.Histogram("netauth_secure_frame_bytes", telemetry.SizeBuckets),
		payloadBytes:      reg.Histogram("netauth_payload_bytes", telemetry.SizeBuckets),
		batches:           reg.Counter("netauth_v2_batches_total"),
		batchSize:         reg.Histogram("netauth_batch_size", batchSizeBuckets),
		pipelined:         reg.Histogram("netauth_v2_pipelined_session_seconds", telemetry.LatencyBuckets),
	}
	// One counter per structured error code, registered up front so the
	// hot path never concatenates strings or touches the registry map.
	for _, code := range codes {
		m.denials[code] = reg.Counter("netauth_deny_" + code + "_total")
	}
	return m
}

func (m *serverMetrics) sessionStart() {
	if m == nil {
		return
	}
	m.sessionsStarted.Inc()
	m.activeSessions.Inc()
}

// sessionEnd closes one session's latency accounting.  traceID (empty for
// untraced sessions) becomes the histogram's exemplar, so a latency SLO
// alert can name a concrete trace to pull up.
func (m *serverMetrics) sessionEnd(start time.Time, traceID string) {
	if m == nil {
		return
	}
	m.activeSessions.Dec()
	m.sessionSeconds.ObserveExemplar(time.Since(start).Seconds(), traceID)
}

func (m *serverMetrics) verdict(approvedVerdict bool) {
	if m == nil {
		return
	}
	m.sessionsCompleted.Inc()
	if approvedVerdict {
		m.approved.Inc()
	} else {
		m.denied.Inc()
	}
}

func (m *serverMetrics) deny(code string) {
	if m == nil {
		return
	}
	if c, ok := m.denials[code]; ok {
		c.Inc()
	} else {
		m.denialOther.Inc()
	}
}

func (m *serverMetrics) lockout() {
	if m == nil {
		return
	}
	m.lockouts.Inc()
}

func (m *serverMetrics) frame(n int) {
	if m == nil {
		return
	}
	m.frameBytes.Observe(float64(n))
}

// batch counts one multiplexed hello batch of k sessions.
func (m *serverMetrics) batch(k int) {
	if m == nil {
		return
	}
	m.batches.Inc()
	m.batchSize.Observe(float64(k))
}

// observePipelined records one pipelined (batch > 1) session's latency,
// with its trace ID as the histogram exemplar when the session was traced.
func (m *serverMetrics) observePipelined(start time.Time, traceID string) {
	if m == nil {
		return
	}
	m.pipelined.ObserveExemplar(time.Since(start).Seconds(), traceID)
}

func (m *serverMetrics) observeSelect(start time.Time) {
	if m == nil {
		return
	}
	m.selectSeconds.ObserveSince(start)
}

func (m *serverMetrics) observeRTT(start time.Time) {
	if m == nil {
		return
	}
	m.deviceRTT.ObserveSince(start)
}

func (m *serverMetrics) keyexStart() {
	if m == nil {
		return
	}
	m.keyexStarted.Inc()
}

func (m *serverMetrics) keyexEstablishedOK() {
	if m == nil {
		return
	}
	m.keyexEstablished.Inc()
}

func (m *serverMetrics) keyexReject() {
	if m == nil {
		return
	}
	m.keyexRejected.Inc()
}

func (m *serverMetrics) observeKeyDerive(start time.Time) {
	if m == nil {
		return
	}
	m.keyexDerive.ObserveSince(start)
}

func (m *serverMetrics) secureFrame(n int) {
	if m == nil {
		return
	}
	m.secureFrameBytes.Observe(float64(n))
}

func (m *serverMetrics) payload(n int) {
	if m == nil {
		return
	}
	m.payloadBytes.Observe(float64(n))
}

// Client-side instruments, captured once from the Default registry.  The
// cost per session is a few predictable atomic adds in both "instrumented"
// and "bare" server benchmarks, so it never skews an overhead comparison.
var (
	clientAttempts       = telemetry.Default.Counter("netauth_client_attempts_total")
	clientRetries        = telemetry.Default.Counter("netauth_client_retries_total")
	clientSessions       = telemetry.Default.Counter("netauth_client_sessions_total")
	clientFailures       = telemetry.Default.Counter("netauth_client_failures_total")
	clientSessionSeconds = telemetry.Default.Histogram("netauth_client_session_seconds", telemetry.LatencyBuckets)
)
