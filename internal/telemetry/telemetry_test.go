package telemetry

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("c") != c {
		t.Fatal("Counter is not get-or-create: second lookup returned a different instrument")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-10)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Inc()
	h.Observe(1)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	var nilReg *Registry
	if s := nilReg.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// TestHistogramBucketBoundaries pins the ≤-bound semantics: a value equal to
// a bound lands in that bound's bucket, a value above every bound lands in
// the implicit +Inf bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []float64{1, 2.5, 5, 10}
	cases := []struct {
		value  float64
		bucket int // index into counts, len(bounds) = +Inf
	}{
		{-1, 0},
		{0, 0},
		{0.5, 0},
		{1, 0},      // equal to bound 1 → its bucket
		{1.0001, 1}, // just above → next bucket
		{2.5, 1},    // equal to bound 2.5
		{2.6, 2},    //
		{5, 2},      // equal to bound 5
		{9.999, 3},  //
		{10, 3},     // equal to the last finite bound
		{10.001, 4}, // above every bound → +Inf bucket
		{1e300, 4},  //
		{math.Inf(1), 4},
	}
	for _, tc := range cases {
		h := NewHistogram(bounds)
		h.Observe(tc.value)
		s := h.Snapshot()
		for i, c := range s.Counts {
			want := uint64(0)
			if i == tc.bucket {
				want = 1
			}
			if c != want {
				t.Errorf("Observe(%g): bucket[%d] = %d, want %d", tc.value, i, c, want)
			}
		}
		if s.Count != 1 {
			t.Errorf("Observe(%g): count = %d, want 1", tc.value, s.Count)
		}
	}

	t.Run("nan-ignored", func(t *testing.T) {
		h := NewHistogram(bounds)
		h.Observe(math.NaN())
		if h.Count() != 0 {
			t.Fatal("NaN observation must be dropped")
		}
	})
	t.Run("bad-bounds-panic", func(t *testing.T) {
		for _, bad := range [][]float64{nil, {}, {2, 1}, {1, 1}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("NewHistogram(%v) did not panic", bad)
					}
				}()
				NewHistogram(bad)
			}()
		}
	})
}

func TestHistogramMeanAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 3, 4})
	for _, v := range []float64{0.5, 1.5, 2.5, 3.5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := s.Mean(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("mean = %g, want 2", got)
	}
	if q := s.Quantile(0); q < 0 || q > 1 {
		t.Fatalf("p0 = %g, want within first bucket", q)
	}
	if q := s.Quantile(1); math.Abs(q-4) > 1e-9 {
		t.Fatalf("p100 = %g, want 4", q)
	}
	// Everything in the +Inf bucket: quantiles saturate at the last bound.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(100)
	if q := h2.Snapshot().Quantile(0.99); q != 2 {
		t.Fatalf("overflow quantile = %g, want saturation at 2", q)
	}
	var empty HistogramSnapshot
	if empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Fatal("empty snapshot statistics must be zero")
	}
}

// TestSnapshotTextGolden pins the /metrics text format against a golden
// file.  The format is an interface consumed by scrapers; changes must be
// deliberate (regenerate with -update).
var update = os.Getenv("UPDATE_GOLDEN") != ""

func TestSnapshotTextGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("auth_total").Add(42)
	r.Counter("a_first").Inc()
	r.Gauge("active_sessions").Set(-3)
	h := r.Histogram("latency_seconds", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.01)
	h.Observe(5)

	var b strings.Builder
	if err := r.Snapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	golden := filepath.Join("testdata", "metrics.golden")
	if update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("text format drifted from golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	r.Gauge("g").Set(-1)
	r.Histogram("h", []float64{1, 2}).Observe(1.5)
	b, err := r.Snapshot().MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["c"] != 7 || back.Gauges["g"] != -1 || back.Histograms["h"].Count != 1 {
		t.Fatalf("JSON round trip lost data: %+v", back)
	}
}

// TestConcurrentIncrements hammers every instrument type from many
// goroutines; totals must be exact and the race detector must stay quiet.
func TestConcurrentIncrements(t *testing.T) {
	const goroutines = 16
	const perG = 2000
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Get-or-create from every goroutine: the registry map itself
			// is part of the contract under test.
			c := r.Counter("shared_counter")
			g := r.Gauge("shared_gauge")
			h := r.Histogram("shared_hist", []float64{0.5, 1.5})
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters["shared_counter"]; got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := s.Gauges["shared_gauge"]; got != goroutines*perG {
		t.Fatalf("gauge = %d, want %d", got, goroutines*perG)
	}
	hs := s.Histograms["shared_hist"]
	if hs.Count != goroutines*perG || hs.Counts[1] != goroutines*perG {
		t.Fatalf("histogram count = %d bucket1 = %d, want %d", hs.Count, hs.Counts[1], goroutines*perG)
	}
	if math.Abs(hs.Sum-goroutines*perG) > 1e-6 {
		t.Fatalf("histogram sum = %g, want %d", hs.Sum, goroutines*perG)
	}
}
