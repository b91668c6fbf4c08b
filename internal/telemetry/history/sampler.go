package history

import (
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"xorpuf/internal/telemetry"
)

// DefaultCapacity is how many samples each series retains when Options
// leaves Capacity zero.  At the default 2 s interval that is 20 minutes of
// history — enough for every burn-rate window the SLO engine ships with.
const DefaultCapacity = 600

// Options configures a Sampler.
type Options struct {
	// Capacity is the per-series ring size (default DefaultCapacity).
	Capacity int
	// Now supplies timestamps for Tick (default time.Now).  Tests inject a
	// fake clock here; the sampler itself never reads the wall clock.
	Now func() time.Time
	// Collectors run, in order, at the start of every Tick — before the
	// registry snapshot is taken.  telemetry.RuntimeCollector is the
	// canonical member: it refreshes the runtime_* instruments so the same
	// tick that samples auth latency also samples goroutine count.
	Collectors []func()
}

// histSeries retains whole histogram snapshots so windowed quantiles can be
// computed over exactly the observations inside the window.
type histSeries struct {
	ring []telemetry.HistogramSnapshot
	ts   []time.Time
	next int
	full bool
}

func newHistSeries(capacity int) *histSeries {
	if capacity < 2 {
		capacity = 2
	}
	return &histSeries{
		ring: make([]telemetry.HistogramSnapshot, capacity),
		ts:   make([]time.Time, capacity),
	}
}

func (h *histSeries) append(t time.Time, s telemetry.HistogramSnapshot) {
	h.ring[h.next] = s
	h.ts[h.next] = t
	h.next++
	if h.next == len(h.ring) {
		h.next = 0
		h.full = true
	}
}

func (h *histSeries) len() int {
	if h.full {
		return len(h.ring)
	}
	return h.next
}

func (h *histSeries) at(i int) (time.Time, telemetry.HistogramSnapshot) {
	if h.full {
		i = (h.next + i) % len(h.ring)
	}
	return h.ts[i], h.ring[i]
}

// window returns the oldest and newest snapshot with timestamp >= since.
func (h *histSeries) window(since time.Time) (first, last telemetry.HistogramSnapshot, ok bool) {
	n := h.len()
	found := false
	for i := 0; i < n; i++ {
		t, s := h.at(i)
		if t.Before(since) {
			continue
		}
		if !found {
			first, found = s, true
		}
		last = s
	}
	return first, last, found
}

// deltaSnapshot subtracts two cumulative snapshots bucket-wise, clamping
// each bucket at zero so a histogram reset (process restart) yields an
// empty window instead of garbage.
func deltaSnapshot(first, last telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	if len(first.Counts) != len(last.Counts) {
		return last // bucket layout changed: treat the window as fresh
	}
	d := telemetry.HistogramSnapshot{
		Bounds: last.Bounds,
		Counts: make([]uint64, len(last.Counts)),
		Sum:    last.Sum - first.Sum,
	}
	for i := range last.Counts {
		if last.Counts[i] >= first.Counts[i] {
			d.Counts[i] = last.Counts[i] - first.Counts[i]
		}
	}
	if last.Count >= first.Count {
		d.Count = last.Count - first.Count
	}
	if d.Sum < 0 {
		d.Sum = 0
	}
	return d
}

// Sampler snapshots a telemetry.Registry into per-instrument time series.
// All methods are safe for concurrent use: production runs Tick from a
// ticker goroutine while the admin plane answers queries.
type Sampler struct {
	reg        *telemetry.Registry
	capacity   int
	now        func() time.Time
	collectors []func()

	mu       sync.Mutex
	counters map[string]*Series
	gauges   map[string]*Series
	hists    map[string]*histSeries
	ticks    int
	lastTick time.Time
}

// NewSampler builds a sampler over reg.  reg may be nil (every query
// reports no data) so wiring can be unconditional.
func NewSampler(reg *telemetry.Registry, opts Options) *Sampler {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Sampler{
		reg:        reg,
		capacity:   opts.Capacity,
		now:        opts.Now,
		collectors: opts.Collectors,
		counters:   make(map[string]*Series),
		gauges:     make(map[string]*Series),
		hists:      make(map[string]*histSeries),
	}
}

// Registry returns the registry the sampler snapshots (nil for a sampler
// built over none).
func (s *Sampler) Registry() *telemetry.Registry { return s.reg }

// Now reports the sampler's current time — the injected clock, so every
// consumer (SLO engine, anomaly detector, admin handlers) shares one
// notion of "now".
func (s *Sampler) Now() time.Time { return s.now() }

// Tick takes one sample of every registered instrument at Now, running the
// collectors first, and returns the sample timestamp.
func (s *Sampler) Tick() time.Time {
	for _, c := range s.collectors {
		c()
	}
	t := s.now()
	if s.reg == nil {
		return t
	}
	snap := s.reg.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, v := range snap.Counters {
		sr := s.counters[name]
		if sr == nil {
			sr = newSeries(s.capacity)
			s.counters[name] = sr
			// Backfill a zero baseline at the previous tick: a counter
			// appearing mid-run provably sat at zero before it was
			// registered, and without the baseline its entire first
			// burst would be invisible to windowed deltas until the
			// second sample.
			if s.ticks > 0 {
				sr.Append(Point{T: s.lastTick, V: 0})
			}
		}
		sr.Append(Point{T: t, V: float64(v)})
	}
	for name, v := range snap.Gauges {
		sr := s.gauges[name]
		if sr == nil {
			sr = newSeries(s.capacity)
			s.gauges[name] = sr
		}
		sr.Append(Point{T: t, V: float64(v)})
	}
	for name, h := range snap.Histograms {
		hs := s.hists[name]
		if hs == nil {
			hs = newHistSeries(s.capacity)
			s.hists[name] = hs
			// Same zero-baseline backfill as counters: an empty snapshot
			// with the new histogram's bucket layout.
			if s.ticks > 0 {
				hs.append(s.lastTick, telemetry.HistogramSnapshot{
					Bounds: h.Bounds, Counts: make([]uint64, len(h.Counts)),
				})
			}
		}
		hs.append(t, h)
	}
	s.ticks++
	s.lastTick = t
	return t
}

// Ticks returns how many samples have been taken.
func (s *Sampler) Ticks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ticks
}

// CounterDelta returns how much the counter grew over the trailing window.
func (s *Sampler) CounterDelta(name string, window time.Duration) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr := s.counters[name]
	if sr == nil {
		return 0, false
	}
	return sr.Delta(s.now().Add(-window))
}

// GaugeQuantile estimates the q-th quantile of the gauge's sampled values
// inside the trailing window — "p99 of replication lag over 5 minutes" is a
// quantile over samples of a level, not over histogram observations, so it
// gets its own estimator.
func (s *Sampler) GaugeQuantile(name string, window time.Duration, q float64) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr := s.gauges[name]
	if sr == nil {
		return 0, false
	}
	w := sr.Window(s.now().Add(-window))
	if len(w) == 0 {
		return 0, false
	}
	vals := make([]float64, len(w))
	for i, p := range w {
		vals[i] = p.V
	}
	sort.Float64s(vals)
	if q <= 0 {
		return vals[0], true
	}
	if q >= 1 {
		return vals[len(vals)-1], true
	}
	// Nearest-rank on the sampled values: the smallest sample with at least
	// a q fraction of the window at or below it.
	idx := int(math.Ceil(q*float64(len(vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	return vals[idx], true
}

// HistWindow returns the bucket-wise delta snapshot of the named histogram
// over the trailing window — exactly the observations recorded inside it.
func (s *Sampler) HistWindow(name string, window time.Duration) (telemetry.HistogramSnapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hs := s.hists[name]
	if hs == nil {
		return telemetry.HistogramSnapshot{}, false
	}
	first, last, ok := hs.window(s.now().Add(-window))
	if !ok {
		return telemetry.HistogramSnapshot{}, false
	}
	d := deltaSnapshot(first, last)
	return d, d.Count > 0
}

// HistQuantile estimates the q-th quantile of observations recorded inside
// the trailing window.
func (s *Sampler) HistQuantile(name string, window time.Duration, q float64) (float64, bool) {
	d, ok := s.HistWindow(name, window)
	if !ok {
		return 0, false
	}
	return d.Quantile(q), true
}

// SeriesStats summarises one counter or gauge series for the /timeseries
// endpoint and `puflab top`.
type SeriesStats struct {
	// Last is the newest sampled value.
	Last float64 `json:"last"`
	// Rate is the per-second change over the window (counters only).
	Rate float64 `json:"rate,omitempty"`
	// Samples is how many points fell inside the window.
	Samples int `json:"samples"`
	// Points holds the raw samples when the dump was asked for them.
	Points []Point `json:"points,omitempty"`
}

// HistStats summarises one histogram's trailing window.
type HistStats struct {
	// Count is how many observations fell inside the window.
	Count uint64 `json:"count"`
	// Rate is observations per second over the window.
	Rate float64 `json:"rate"`
	// Mean, P50, P90, P99 describe the windowed distribution.
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
}

// Dump is the /timeseries payload: every series summarised over one
// trailing window.
type Dump struct {
	// At is the dump's evaluation time (the sampler's clock).
	At time.Time `json:"at"`
	// WindowSeconds is the trailing window the stats cover.
	WindowSeconds float64 `json:"window_seconds"`
	// Ticks is how many samples the sampler has taken in total.
	Ticks      int                    `json:"ticks"`
	Counters   map[string]SeriesStats `json:"counters"`
	Gauges     map[string]SeriesStats `json:"gauges"`
	Histograms map[string]HistStats   `json:"histograms"`
}

// Dump summarises every series over the trailing window.  withPoints
// includes the raw counter/gauge samples (the payload grows accordingly).
func (s *Sampler) Dump(window time.Duration, withPoints bool) Dump {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	since := now.Add(-window)
	d := Dump{
		At:            now,
		WindowSeconds: window.Seconds(),
		Ticks:         s.ticks,
		Counters:      make(map[string]SeriesStats, len(s.counters)),
		Gauges:        make(map[string]SeriesStats, len(s.gauges)),
		Histograms:    make(map[string]HistStats, len(s.hists)),
	}
	for name, sr := range s.counters {
		w := sr.Window(since)
		st := SeriesStats{Samples: len(w)}
		if p, ok := sr.Last(); ok {
			st.Last = p.V
		}
		if rate, ok := sr.Rate(since); ok {
			st.Rate = rate
		}
		if withPoints {
			st.Points = w
		}
		d.Counters[name] = st
	}
	for name, sr := range s.gauges {
		w := sr.Window(since)
		st := SeriesStats{Samples: len(w)}
		if p, ok := sr.Last(); ok {
			st.Last = p.V
		}
		if withPoints {
			st.Points = w
		}
		d.Gauges[name] = st
	}
	for name, hs := range s.hists {
		first, last, ok := hs.window(since)
		if !ok {
			continue
		}
		delta := deltaSnapshot(first, last)
		st := HistStats{
			Count: delta.Count,
			Mean:  delta.Mean(),
			P50:   delta.Quantile(0.5),
			P90:   delta.Quantile(0.9),
			P99:   delta.Quantile(0.99),
		}
		if window > 0 {
			st.Rate = float64(delta.Count) / window.Seconds()
		}
		d.Histograms[name] = st
	}
	return d
}

// SeriesNames returns the names of every retained series, sorted, for
// operator discovery.
func (s *Sampler) SeriesNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.counters)+len(s.gauges)+len(s.hists))
	for n := range s.counters {
		names = append(names, n)
	}
	for n := range s.gauges {
		names = append(names, n)
	}
	for n := range s.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Handler serves the /timeseries admin endpoint as application/json.
// Query parameters: window (Go duration, default 60s), points=1 to include
// raw samples.
func (s *Sampler) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		window := time.Minute
		if q := r.URL.Query().Get("window"); q != "" {
			// Tolerant parse: a bad window means the default.
			if d, err := time.ParseDuration(q); err == nil && d > 0 {
				window = d
			}
		}
		withPoints := r.URL.Query().Get("points") == "1"
		telemetry.WriteJSON(w, s.Dump(window, withPoints))
	})
}
