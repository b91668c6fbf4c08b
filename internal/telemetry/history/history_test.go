package history

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"xorpuf/internal/telemetry"
)

// fakeClock is the injectable time source every test drives.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

func TestSeriesRing(t *testing.T) {
	s := newSeries(4)
	base := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		s.Append(Point{T: base.Add(time.Duration(i) * time.Second), V: float64(i)})
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", s.Len())
	}
	// Oldest retained is i=6; newest i=9.
	if got := s.at(0).V; got != 6 {
		t.Fatalf("oldest = %v, want 6", got)
	}
	last, ok := s.Last()
	if !ok || last.V != 9 {
		t.Fatalf("Last = %+v ok=%v, want V=9", last, ok)
	}
	w := s.Window(base.Add(8 * time.Second))
	if len(w) != 2 || w[0].V != 8 || w[1].V != 9 {
		t.Fatalf("Window = %+v, want points 8,9", w)
	}
}

func TestSeriesRateAndDelta(t *testing.T) {
	s := newSeries(16)
	base := time.Unix(0, 0)
	// Counter growing 5/s for 10 samples, 1 s apart.
	for i := 0; i <= 10; i++ {
		s.Append(Point{T: base.Add(time.Duration(i) * time.Second), V: float64(5 * i)})
	}
	d, ok := s.Delta(base.Add(5 * time.Second))
	if !ok || d != 25 {
		t.Fatalf("Delta = %v ok=%v, want 25", d, ok)
	}
	r, ok := s.Rate(base.Add(5 * time.Second))
	if !ok || math.Abs(r-5) > 1e-9 {
		t.Fatalf("Rate = %v ok=%v, want 5/s", r, ok)
	}
	// A single in-window point answers nothing.
	if _, ok := s.Rate(base.Add(10 * time.Second)); ok {
		t.Fatal("Rate over a one-point window should report no data")
	}
}

// TestSeriesCounterReset: a counter reset (restart) must clamp to zero,
// not report a huge negative rate.
func TestSeriesCounterReset(t *testing.T) {
	s := newSeries(8)
	base := time.Unix(0, 0)
	s.Append(Point{T: base, V: 1000})
	s.Append(Point{T: base.Add(time.Second), V: 3}) // reset
	d, ok := s.Delta(base.Add(-time.Second))
	if !ok || d != 0 {
		t.Fatalf("Delta after reset = %v ok=%v, want clamped 0", d, ok)
	}
}

func TestSamplerTickAndQueries(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("sessions_total")
	g := reg.Gauge("active")
	h := reg.Histogram("latency_seconds", telemetry.LatencyBuckets)

	s := NewSampler(reg, Options{Capacity: 64, Now: clk.Now})
	// Ten ticks, 1 s apart: counter +10/s, gauge = tick index, one 2 ms
	// observation per tick.
	for i := 0; i < 10; i++ {
		ctr.Add(10)
		g.Set(int64(i))
		h.Observe(0.002)
		s.Tick()
		clk.Advance(time.Second)
	}
	if s.Ticks() != 10 {
		t.Fatalf("Ticks = %d", s.Ticks())
	}
	rate, ok := s.counters["sessions_total"].Rate(clk.Now().Add(-5 * time.Second))
	if !ok || math.Abs(rate-10) > 1e-9 {
		t.Fatalf("counter rate = %v ok=%v, want 10/s", rate, ok)
	}
	v, ok := s.gauges["active"].Last()
	if !ok || v.V != 9 {
		t.Fatalf("last gauge sample = %v ok=%v, want 9", v.V, ok)
	}
	q, ok := s.HistQuantile("latency_seconds", 5*time.Second, 0.99)
	if !ok || q <= 0 || q > 0.0025 {
		t.Fatalf("HistQuantile = %v ok=%v, want ~2ms (in the 2.5ms bucket)", q, ok)
	}
	if _, ok := s.CounterDelta("never_registered", time.Minute); ok {
		t.Fatal("unknown series should report no data")
	}
}

// TestSamplerGaugeQuantile: nearest-rank quantiles over a gauge's sampled
// trajectory — the estimator behind level SLOs like replication lag p99.
func TestSamplerGaugeQuantile(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	g := reg.Gauge("lag")
	s := NewSampler(reg, Options{Capacity: 128, Now: clk.Now})

	// 100 samples, 1 s apart, values 1..100.
	for i := 1; i <= 100; i++ {
		g.Set(int64(i))
		s.Tick()
		clk.Advance(time.Second)
	}
	// All 100 samples in-window: nearest-rank p50 = 50, p99 = 99, and the
	// extremes clamp to min/max.
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {0, 1}, {1, 100}} {
		v, ok := s.GaugeQuantile("lag", 200*time.Second, tc.q)
		if !ok || v != tc.want {
			t.Fatalf("GaugeQuantile(q=%v) = %v ok=%v, want %v", tc.q, v, ok, tc.want)
		}
	}
	// A narrow window sees only the tail samples.
	v, ok := s.GaugeQuantile("lag", 10*time.Second, 0.5)
	if !ok || v < 90 {
		t.Fatalf("windowed GaugeQuantile = %v ok=%v, want >= 90 (tail only)", v, ok)
	}
	// Unknown gauges and empty windows report no data, not zero.
	if _, ok := s.GaugeQuantile("never_registered", time.Minute, 0.99); ok {
		t.Fatal("unknown gauge should report no data")
	}
	if _, ok := s.GaugeQuantile("lag", 0, 0.99); ok {
		t.Fatal("empty window should report no data")
	}
}

// TestSamplerWindowedQuantileIsolatesSpike: the windowed histogram delta
// must reflect only observations inside the window — the whole point of
// keeping snapshot rings instead of scalar quantiles.
func TestSamplerWindowedQuantileIsolatesSpike(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	h := reg.Histogram("lat", telemetry.LatencyBuckets)
	s := NewSampler(reg, Options{Now: clk.Now})

	// Empty baseline sample, then phase 1: 1000 fast (1 ms) observations.
	s.Tick()
	clk.Advance(10 * time.Second)
	for i := 0; i < 1000; i++ {
		h.Observe(0.001)
	}
	s.Tick()
	clk.Advance(10 * time.Second)

	// Phase 2: 100 slow (400 ms) observations only.
	for i := 0; i < 100; i++ {
		h.Observe(0.4)
	}
	s.Tick()

	// Over the last 15 s (covering only the phase-2 delta), p99 must be in
	// the 400 ms bucket despite the 1000 fast observations dominating the
	// cumulative histogram.
	q, ok := s.HistQuantile("lat", 15*time.Second, 0.99)
	if !ok || q < 0.25 {
		t.Fatalf("windowed p99 = %v ok=%v, want >= 0.25 (spike bucket)", q, ok)
	}
	// The lifetime window still sees mostly fast traffic.
	q, ok = s.HistQuantile("lat", time.Hour, 0.5)
	if !ok || q > 0.01 {
		t.Fatalf("lifetime p50 = %v ok=%v, want ~1ms", q, ok)
	}
}

func TestSamplerCollectorsRunPerTick(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	runs := 0
	s := NewSampler(reg, Options{Now: clk.Now, Collectors: []func(){func() { runs++ }}})
	s.Tick()
	s.Tick()
	if runs != 2 {
		t.Fatalf("collector ran %d times, want 2", runs)
	}
}

// TestRuntimeCollectorSampled: the runtime collector's instruments land in
// the same sampler timeline as everything else (satellite: runtime
// collector registered into the registry and sampled by the history
// ticker).
func TestRuntimeCollectorSampled(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	s := NewSampler(reg, Options{Now: clk.Now, Collectors: []func(){
		telemetry.RuntimeCollector(reg, clk.Now),
	}})
	s.Tick()
	clk.Advance(30 * time.Second)
	s.Tick()

	g, ok := s.gauges["runtime_goroutines"].Last()
	if !ok || g.V < 1 {
		t.Fatalf("runtime_goroutines = %v ok=%v, want >= 1", g.V, ok)
	}
	heap, ok := s.gauges["runtime_heap_inuse_bytes"].Last()
	if !ok || heap.V <= 0 {
		t.Fatalf("runtime_heap_inuse_bytes = %v ok=%v", heap.V, ok)
	}
	up, ok := s.gauges["runtime_uptime_seconds"].Last()
	if !ok || up.V != 30 {
		t.Fatalf("runtime_uptime_seconds = %v ok=%v, want 30 (fake clock)", up.V, ok)
	}
}

func TestDumpAndHandler(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("c_total")
	h := reg.Histogram("h_seconds", telemetry.LatencyBuckets)
	s := NewSampler(reg, Options{Now: clk.Now})
	for i := 0; i < 5; i++ {
		ctr.Add(7)
		h.Observe(0.01)
		s.Tick()
		clk.Advance(2 * time.Second)
	}

	d := s.Dump(time.Minute, true)
	cs, ok := d.Counters["c_total"]
	if !ok || cs.Last != 35 || len(cs.Points) != 5 {
		t.Fatalf("counter stats = %+v ok=%v", cs, ok)
	}
	hs, ok := d.Histograms["h_seconds"]
	if !ok || hs.Count != 4 { // delta between first and last in-window sample
		t.Fatalf("hist stats = %+v ok=%v", hs, ok)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/timeseries?window=30s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/timeseries Content-Type = %q, want application/json", ct)
	}
	var got Dump
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("decoding /timeseries: %v", err)
	}
	if got.WindowSeconds != 30 || got.Counters["c_total"].Last != 35 {
		t.Fatalf("dump over HTTP = %+v", got)
	}
	if len(got.Counters["c_total"].Points) != 0 {
		t.Fatal("points included without points=1")
	}
}

func TestSeriesNames(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("b_total")
	reg.Gauge("a_gauge")
	clk := newFakeClock()
	s := NewSampler(reg, Options{Now: clk.Now})
	s.Tick()
	names := s.SeriesNames()
	if len(names) != 2 || names[0] != "a_gauge" || names[1] != "b_total" {
		t.Fatalf("SeriesNames = %v", names)
	}
}

// TestNilRegistry: a sampler over a nil registry must answer (with no
// data) rather than panic, so wiring can be unconditional.
func TestNilRegistry(t *testing.T) {
	s := NewSampler(nil, Options{Now: newFakeClock().Now})
	s.Tick()
	if _, ok := s.CounterDelta("x", time.Minute); ok {
		t.Fatal("nil-registry sampler should have no data")
	}
}
