// Package dtrace is a dependency-free distributed-tracing substrate for the
// multi-process fleet: 128-bit trace IDs, 64-bit span IDs, parent links, a
// process-level service tag, and a fixed-capacity concurrent span ring per
// process.  One authentication session yields one trace tree spanning every
// process it touched — gateway, shard primary, quorum follower — assembled
// after the fact by scraping each process's ring (`puflab trace collect`).
//
// The context travels on the wire as a single string, "32hex-16hex"
// (trace-span).  Parsing is strict and total: anything that is not exactly
// that shape is reported as absent, never as an error, so a hostile or
// corrupted trace field can only cost the trace, not the session.
//
// Recording is designed so the untraced path costs nothing: every method on a
// nil *Span or nil *Recorder is a no-op, and StartSpan on an invalid parent
// context returns nil.  A server that receives no trace context therefore
// executes only nil checks.
package dtrace

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// TraceID identifies one distributed trace (one session end to end).
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is unset.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 32 lowercase hex characters.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as 16 lowercase hex characters.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// Context is the propagated trace context: which trace a downstream span
// belongs to and which span is its parent.
type Context struct {
	Trace TraceID
	Span  SpanID
}

// ContextLen is the exact wire length of an encoded context:
// 32 hex trace chars, a dash, 16 hex span chars.
const ContextLen = 32 + 1 + 16

// Valid reports whether the context carries a usable trace and span ID.
func (c Context) Valid() bool { return !c.Trace.IsZero() && !c.Span.IsZero() }

// String encodes the context in its wire form, or "" when invalid — so an
// absent context injects nothing into a frame.
func (c Context) String() string {
	if !c.Valid() {
		return ""
	}
	b := make([]byte, 0, ContextLen)
	b = hex.AppendEncode(b, c.Trace[:])
	b = append(b, '-')
	b = hex.AppendEncode(b, c.Span[:])
	return string(b)
}

// ParseContext parses a wire-form context.  It is strict — exactly
// ContextLen characters, hex (either case) with the dash at offset 32, and
// non-zero trace and span IDs — and total: malformed input yields (zero,
// false), never an error, which is what lets every protocol layer treat a
// hostile trace field as "untraced" instead of a fault.
func ParseContext(s string) (Context, bool) {
	if len(s) != ContextLen || s[32] != '-' {
		return Context{}, false
	}
	var c Context
	if _, err := hex.Decode(c.Trace[:], []byte(s[:32])); err != nil {
		return Context{}, false
	}
	if _, err := hex.Decode(c.Span[:], []byte(s[33:])); err != nil {
		return Context{}, false
	}
	if !c.Valid() {
		return Context{}, false
	}
	return c, true
}

// ParseTraceID parses a bare 32-hex-character trace ID (the lookup key for
// `puflab trace show` and the ?trace= query filter), with the same
// total-function discipline as ParseContext.
func ParseTraceID(s string) (TraceID, bool) {
	if len(s) != 32 {
		return TraceID{}, false
	}
	var t TraceID
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	if t.IsZero() {
		return TraceID{}, false
	}
	return t, true
}

// NewTraceID mints a random trace ID.
func NewTraceID() TraceID {
	var t TraceID
	mustRand(t[:])
	return t
}

// NewSpanID mints a random span ID.
func NewSpanID() SpanID {
	var s SpanID
	mustRand(s[:])
	return s
}

// mustRand fills b from the CSPRNG.  crypto/rand is documented never to fail
// on supported platforms; if it somehow returns short, the zero-ID guard in
// Valid keeps a degenerate ID from propagating as a real context.
func mustRand(b []byte) {
	_, _ = crand.Read(b)
}

// Span is one timed operation within a trace.  Spans are created by a
// Recorder (StartSpan / StartRoot), annotated, and recorded into the ring by
// End.  A nil *Span is the untraced case: every method no-ops.
type Span struct {
	Trace   TraceID
	ID      SpanID
	Parent  SpanID // zero for a root span
	Service string
	Name    string
	Start   time.Time
	Seconds float64
	Status  string
	Attrs   map[string]string

	rec   *Recorder
	ended bool
}

// Context returns the context downstream work should propagate: same trace,
// this span as parent.  Nil-safe: a nil span yields the invalid zero context.
func (s *Span) Context() Context {
	if s == nil {
		return Context{}
	}
	return Context{Trace: s.Trace, Span: s.ID}
}

// SetAttr attaches one key/value annotation.
func (s *Span) SetAttr(k, v string) {
	if s == nil || v == "" {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 8)
	}
	s.Attrs[k] = v
}

// SetStatus sets the span's outcome ("ok", "denied:throttled", "moved", …).
func (s *Span) SetStatus(st string) {
	if s == nil {
		return
	}
	s.Status = st
}

// End stamps the duration and records the span into its recorder's ring.
// Idempotent; nil-safe.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.Seconds = time.Since(s.Start).Seconds()
	s.rec.Record(*s)
}

// View is the JSON shape of one recorded span — shared by the /trace/spans
// and /traces admin endpoints, spans_final.json, and the `puflab trace`
// collector, so one process's output is another's input.  An untraced
// session's record has no IDs, so it renders without trace_id and span_id.
type View struct {
	TraceID  string            `json:"trace_id,omitempty"`
	SpanID   string            `json:"span_id,omitempty"`
	ParentID string            `json:"parent_id,omitempty"`
	Service  string            `json:"service"`
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Seconds  float64           `json:"seconds"`
	Status   string            `json:"status,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// View converts a recorded span to its JSON shape.
func (s Span) View() View {
	v := View{
		Service: s.Service,
		Name:    s.Name,
		Start:   s.Start,
		Seconds: s.Seconds,
		Status:  s.Status,
		Attrs:   s.Attrs,
	}
	if !s.Trace.IsZero() {
		v.TraceID = s.Trace.String()
	}
	if !s.ID.IsZero() {
		v.SpanID = s.ID.String()
	}
	if !s.Parent.IsZero() {
		v.ParentID = s.Parent.String()
	}
	return v
}

// Recorder is a fixed-capacity concurrent ring of finished spans plus the
// process's service tag.  All methods are safe for concurrent use and
// nil-safe, mirroring the telemetry registry's discipline: tracing can be
// disabled by simply not attaching a recorder.
type Recorder struct {
	mu      sync.Mutex
	service string
	ring    []Span
	next    int
	full    bool
}

// NewRecorder creates a recorder keeping the most recent capacity spans
// (minimum 16).
func NewRecorder(capacity int) *Recorder {
	if capacity < 16 {
		capacity = 16
	}
	return &Recorder{ring: make([]Span, capacity)}
}

// SetService sets the process/service tag stamped on every span this
// recorder starts.
func (r *Recorder) SetService(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.service = name
	r.mu.Unlock()
}

// Service returns the process/service tag.
func (r *Recorder) Service() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.service
}

// StartRoot mints a fresh trace and returns its root span — the gateway's
// (or a tracing client's) entry point.
func (r *Recorder) StartRoot(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{
		Trace:   NewTraceID(),
		ID:      NewSpanID(),
		Service: r.Service(),
		Name:    name,
		Start:   time.Now(),
		rec:     r,
	}
}

// StartSpan starts a child span under parent.  An invalid parent context
// returns nil — the untraced fast path: callers thread the nil span through
// and every annotation no-ops.
func (r *Recorder) StartSpan(parent Context, name string) *Span {
	return r.StartSpanAt(parent, name, time.Now())
}

// StartSpanAt is StartSpan with an explicit start time, for spans whose
// beginning was observed before the decision to trace (e.g. a device
// round-trip timed from challenge issuance).
func (r *Recorder) StartSpanAt(parent Context, name string, start time.Time) *Span {
	if r == nil || !parent.Valid() {
		return nil
	}
	return &Span{
		Trace:   parent.Trace,
		ID:      NewSpanID(),
		Parent:  parent.Span,
		Service: r.Service(),
		Name:    name,
		Start:   start,
		rec:     r,
	}
}

// Record places one finished span in the ring, evicting the oldest when
// full.  Used directly by layers that reconstruct spans from wire markers
// (the replication follower) rather than timing them in place.
func (r *Recorder) Record(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if s.Service == "" {
		s.Service = r.service
	}
	r.ring[r.next] = s
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Len returns how many spans the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.ring)
	}
	return r.next
}

// Spans returns the recorded spans, newest first.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.ring)
	}
	out := make([]Span, 0, n)
	for i := 0; i < n; i++ {
		idx := (r.next - 1 - i + len(r.ring)) % len(r.ring)
		out = append(out, r.ring[idx])
	}
	return out
}

// ByTrace returns the recorded spans belonging to one trace, newest first.
func (r *Recorder) ByTrace(id TraceID) []Span {
	var out []Span
	for _, s := range r.Spans() {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	return out
}

// Default is the process-wide recorder, mirroring telemetry.Default: every
// subsystem records here unless a test swaps in its own.
var Default = NewRecorder(4096)

// SetService tags the process-wide recorder.
func SetService(name string) { Default.SetService(name) }

type ctxKey struct{}

// Inject returns a context.Context carrying c, for threading trace context
// through call chains (netauth issuance → registry → replication quorum
// wait) without widening every signature.  An invalid c returns ctx
// unchanged.
func Inject(ctx context.Context, c Context) context.Context {
	if !c.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, c)
}

// FromContext extracts the trace context injected by Inject, or the invalid
// zero context.
func FromContext(ctx context.Context) Context {
	if ctx == nil {
		return Context{}
	}
	c, _ := ctx.Value(ctxKey{}).(Context)
	return c
}
