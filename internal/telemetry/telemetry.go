// Package telemetry is the observability plane: a dependency-free,
// concurrency-safe metrics registry (counters, gauges, bounded-bucket
// latency histograms) and the admin HTTP mux that serves it.  Per-session
// records are dtrace spans (package dtrace), mounted on the mux as
// endpoints.
//
// Design constraints, in order:
//
//  1. Allocation-free on the hot path.  Instruments are looked up (or
//     created) once, at construction time, and the returned pointers are
//     incremented with single atomic operations.  Counter.Inc, Gauge.Set,
//     and Histogram.Observe allocate nothing and take no locks.
//  2. Dependency-free.  Only the standard library; anything in this
//     repository may import telemetry without cycles (it imports no other
//     xorpuf package).
//  3. Deterministic export.  Snapshot orders every metric by name, so the
//     text scrape format is stable byte-for-byte for a given set of values
//     — a golden-file test pins it.
//
// The package-level Default registry is what production wiring (netauth,
// registry, fleet, health, silicon) instruments into; `puflab serve -admin`
// serves its snapshot over HTTP.  Tests that need isolation construct their
// own NewRegistry and inject it (e.g. netauth.Server.SetTelemetry).
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.  The zero value is ready to
// use; all methods are safe for concurrent use and nil-safe, so disabled
// instrumentation can hold nil pointers at no cost beyond a branch.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed value (active sessions, registered
// chips).  The zero value is ready to use; methods are concurrency- and
// nil-safe.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds named instruments.  Lookup methods are get-or-create and
// safe for concurrent use; hot paths should capture the returned pointer
// once rather than looking up per event.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Default is the process-wide registry production wiring instruments into.
var Default = NewRegistry()

// Counter returns the counter registered under name, creating it if absent.
// A nil registry returns nil (a no-op instrument).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if absent.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds if absent.  Bounds must be strictly
// increasing; an implicit +Inf bucket catches the overflow.  Re-registering
// an existing name returns the existing histogram regardless of bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// FindHistogram returns the histogram registered under name, or nil — a
// pure lookup for consumers (the SLO engine's exemplar source) that must not
// create instruments with guessed bucket layouts.
func (r *Registry) FindHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.histograms[name]
}

// HistogramSnapshot is the point-in-time state of one histogram.
type HistogramSnapshot struct {
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum float64 `json:"sum"`
	// Bounds are the bucket upper bounds (exclusive of the implicit +Inf).
	Bounds []float64 `json:"bounds"`
	// Counts has len(Bounds)+1 entries; Counts[i] is the number of
	// observations v with Bounds[i-1] < v ≤ Bounds[i] (the final entry is
	// the +Inf overflow bucket).
	Counts []uint64 `json:"counts"`
	// ExemplarTrace is the trace ID of the most recent traced observation
	// (empty when none occurred) — the concrete session behind the
	// aggregate.  JSON-snapshot only; the text scrape format is unchanged.
	ExemplarTrace string `json:"exemplar_trace,omitempty"`
	// ExemplarValue is the value that observation recorded.
	ExemplarValue float64 `json:"exemplar_value,omitempty"`
}

// Mean returns Sum/Count, or 0 for an empty histogram.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by linear interpolation
// within the containing bucket.  Estimates saturate at the last finite
// bound when the quantile falls in the +Inf bucket.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) >= rank {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			if c == 0 {
				return hi
			}
			frac := (rank - float64(prev)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Snapshot is a consistent-enough point-in-time copy of a registry: each
// instrument is read atomically, though the set as a whole is not a single
// atomic cut (metrics are monotone or instantaneous, so a skewed cut is
// harmless for monitoring).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered instrument.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// formatFloat renders floats deterministically and round-trippably.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders the snapshot in the stable scrape format, one metric
// per line, sorted by name within each section:
//
//	counter <name> <value>
//	gauge <name> <value>
//	histogram <name> count <n> sum <sum>
//	bucket <name> le <bound> <cumulative-count>
//
// Bucket lines are cumulative (each includes every bucket below it) and end
// with the le +Inf total, prometheus-style.  The format is pinned by a
// golden-file test; extend it, don't mutate it.
func (s Snapshot) WriteText(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "gauge %s %d\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "histogram %s count %d sum %s\n",
			name, h.Count, formatFloat(h.Sum)); err != nil {
			return err
		}
		cum := uint64(0)
		for i, c := range h.Counts {
			cum += c
			bound := math.Inf(1)
			if i < len(h.Bounds) {
				bound = h.Bounds[i]
			}
			if _, err := fmt.Fprintf(w, "bucket %s le %s %d\n",
				name, formatFloat(bound), cum); err != nil {
				return err
			}
		}
	}
	return nil
}

// MarshalJSONIndent renders the snapshot as indented JSON (the
// ?format=json scrape body and the metrics_final.json post-mortem file).
func (s Snapshot) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
