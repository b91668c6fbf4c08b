package dtrace

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestContextRoundTrip(t *testing.T) {
	c := Context{Trace: NewTraceID(), Span: NewSpanID()}
	s := c.String()
	if len(s) != ContextLen {
		t.Fatalf("encoded context %q: len %d, want %d", s, len(s), ContextLen)
	}
	got, ok := ParseContext(s)
	if !ok || got != c {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, c)
	}
	if _, ok := ParseContext(strings.ToUpper(s)); !ok {
		t.Fatalf("uppercase hex rejected; ParseContext should accept either case")
	}
}

func TestParseContextStrict(t *testing.T) {
	valid := Context{Trace: NewTraceID(), Span: NewSpanID()}.String()
	bad := []string{
		"",
		"nonsense",
		valid[:ContextLen-1], // truncated
		valid + "0",          // oversized
		strings.Replace(valid, "-", "_", 1),
		valid[:32] + "-" + strings.Repeat("g", 16), // non-hex span
		strings.Repeat("z", 32) + "-" + valid[33:], // non-hex trace
		strings.Repeat("0", 32) + "-" + valid[33:], // zero trace ID
		valid[:32] + "-" + strings.Repeat("0", 16), // zero span ID
		strings.Repeat("0", ContextLen),            // dash missing
	}
	for _, s := range bad {
		if c, ok := ParseContext(s); ok {
			t.Errorf("ParseContext(%q) accepted as %+v, want rejection", s, c)
		}
	}
}

func TestParseTraceID(t *testing.T) {
	id := NewTraceID()
	got, ok := ParseTraceID(id.String())
	if !ok || got != id {
		t.Fatalf("ParseTraceID round trip failed: %v ok=%v", got, ok)
	}
	for _, s := range []string{"", "xyz", strings.Repeat("0", 32), id.String() + "0"} {
		if _, ok := ParseTraceID(s); ok {
			t.Errorf("ParseTraceID(%q) accepted, want rejection", s)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	var sp *Span
	// None of these may panic, and all must report "untraced".
	r.SetService("x")
	r.Record(Span{})
	if r.StartRoot("a") != nil || r.StartSpan(Context{}, "b") != nil {
		t.Fatalf("nil recorder minted a span")
	}
	if got := r.Spans(); got != nil {
		t.Fatalf("nil recorder has spans: %v", got)
	}
	if r.Len() != 0 || r.Service() != "" {
		t.Fatalf("nil recorder not empty")
	}
	sp.SetAttr("k", "v")
	sp.SetStatus("ok")
	sp.End()
	if sp.Context().Valid() {
		t.Fatalf("nil span has a valid context")
	}
	// A live recorder still refuses to start a child of an invalid parent.
	live := NewRecorder(16)
	if live.StartSpan(Context{}, "c") != nil {
		t.Fatalf("StartSpan with invalid parent should return nil")
	}
}

func TestSpanTreeRecording(t *testing.T) {
	r := NewRecorder(64)
	r.SetService("test-svc")
	root := r.StartRoot("session")
	root.SetAttr("chip", "chip-1")
	child := r.StartSpan(root.Context(), "select")
	child.SetStatus("ok")
	child.End()
	root.SetStatus("approved")
	root.End()
	root.End() // idempotent

	if r.Len() != 2 {
		t.Fatalf("recorded %d spans, want 2", r.Len())
	}
	spans := r.ByTrace(root.Trace)
	if len(spans) != 2 {
		t.Fatalf("ByTrace: %d spans, want 2", len(spans))
	}
	// Newest first: root ended last.
	if spans[0].Name != "session" || spans[1].Name != "select" {
		t.Fatalf("order: got %q,%q", spans[0].Name, spans[1].Name)
	}
	if spans[1].Parent != root.ID || spans[1].Trace != root.Trace {
		t.Fatalf("child not linked to root: %+v", spans[1])
	}
	if spans[0].Service != "test-svc" || spans[0].Attrs["chip"] != "chip-1" {
		t.Fatalf("root annotations lost: %+v", spans[0])
	}
	if spans[0].Status != "approved" || spans[1].Status != "ok" {
		t.Fatalf("statuses lost: %q %q", spans[0].Status, spans[1].Status)
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 40; i++ {
		sp := r.StartRoot("s")
		sp.End()
	}
	if r.Len() != 16 {
		t.Fatalf("ring holds %d, want 16", r.Len())
	}
	if got := len(r.Spans()); got != 16 {
		t.Fatalf("Spans returned %d, want 16", got)
	}
	// Newest first across the wrap: the last 16 records survive.
	for i := 0; i < 40; i++ {
		r.Record(Span{Name: fmt.Sprint(i)})
	}
	for i, sp := range r.Spans() {
		if want := fmt.Sprint(39 - i); sp.Name != want {
			t.Fatalf("Spans()[%d] = %q, want %q", i, sp.Name, want)
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				root := r.StartRoot("p")
				c := r.StartSpan(root.Context(), "c")
				c.End()
				root.End()
			}
		}()
	}
	wg.Wait()
	if r.Len() != 256 {
		t.Fatalf("ring holds %d, want full 256", r.Len())
	}
}

func TestContextInjection(t *testing.T) {
	c := Context{Trace: NewTraceID(), Span: NewSpanID()}
	ctx := Inject(context.Background(), c)
	if got := FromContext(ctx); got != c {
		t.Fatalf("FromContext: %+v, want %+v", got, c)
	}
	if got := FromContext(context.Background()); got.Valid() {
		t.Fatalf("empty context yielded %+v", got)
	}
	if ctx := Inject(context.Background(), Context{}); FromContext(ctx).Valid() {
		t.Fatalf("invalid context was injected")
	}
}

// TestHandler pins the query contract /trace/spans and /traces share:
// trace, chip and status filters select before the ?n= cap, n ≤ 0 or junk
// means all, and junk filter values are ignored.
func TestHandler(t *testing.T) {
	r := NewRecorder(64)
	r.SetService("h-svc")
	keep := r.StartRoot("keep")
	keep.SetAttr("chip", "chip-1")
	keep.SetStatus("ok")
	keep.End()
	other := r.StartRoot("other")
	other.SetAttr("chip", "chip-2")
	other.SetStatus("refused:locked_out")
	other.End()
	// An untraced session record: no IDs, still filterable.
	r.Record(Span{Name: "bare", Status: "ok", Attrs: map[string]string{"chip": "chip-2"}})

	cases := []struct {
		query string
		want  []string // span names, newest first
	}{
		{"", []string{"bare", "other", "keep"}},
		{"?trace=" + keep.Trace.String(), []string{"keep"}},
		{"?n=1", []string{"bare"}},
		{"?n=0", []string{"bare", "other", "keep"}},
		{"?n=-3", []string{"bare", "other", "keep"}},
		{"?chip=chip-2", []string{"bare", "other"}},
		{"?status=ok", []string{"bare", "keep"}},
		{"?chip=chip-2&status=refused:locked_out", []string{"other"}},
		{"?chip=chip-2&n=1", []string{"bare"}},
		{"?status=ok&n=1&trace=" + keep.Trace.String(), []string{"keep"}},
		{"?chip=chip-9", nil},
		// Junk parameters are ignored, not errors.
		{"?trace=zzz&n=bogus", []string{"bare", "other", "keep"}},
	}
	for _, tc := range cases {
		req := httptest.NewRequest("GET", "/trace/spans"+tc.query, nil)
		w := httptest.NewRecorder()
		Handler(r)(w, req)
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%q: content type %q", tc.query, ct)
		}
		var d Dump
		if err := json.Unmarshal(w.Body.Bytes(), &d); err != nil {
			t.Fatalf("%q: bad JSON: %v\n%s", tc.query, err, w.Body.String())
		}
		var got []string
		for _, v := range d.Spans {
			got = append(got, v.Name)
		}
		if d.Service != "h-svc" || d.Count != len(d.Spans) || fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%q: service=%q count=%d spans=%v, want %v", tc.query, d.Service, d.Count, got, tc.want)
		}
	}
}

func TestViewJSON(t *testing.T) {
	r := NewRecorder(16)
	r.SetService("v")
	root := r.StartRoot("root")
	child := r.StartSpan(root.Context(), "child")
	child.Start = time.Now()
	child.End()
	root.End()
	b, err := r.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	for _, v := range d.Spans {
		if _, ok := ParseTraceID(v.TraceID); !ok {
			t.Fatalf("view trace id %q unparseable", v.TraceID)
		}
		if v.Name == "child" && v.ParentID != root.ID.String() {
			t.Fatalf("child parent %q, want %q", v.ParentID, root.ID.String())
		}
		if v.Name == "root" && v.ParentID != "" {
			t.Fatalf("root has parent %q", v.ParentID)
		}
	}
	// An untraced session record carries no IDs, so its row has none.
	b, err = json.Marshal(Span{Name: "bare"}.View())
	if err != nil || strings.Contains(string(b), "_id") {
		t.Fatalf("bare span view = %s, %v; want no ID fields", b, err)
	}
}

func FuzzParseContext(f *testing.F) {
	f.Add(Context{Trace: NewTraceID(), Span: NewSpanID()}.String())
	f.Add("")
	f.Add(strings.Repeat("0", ContextLen))
	f.Add(strings.Repeat("f", 32) + "-" + strings.Repeat("f", 16))
	f.Fuzz(func(t *testing.T, s string) {
		c, ok := ParseContext(s)
		if ok {
			if !c.Valid() {
				t.Fatalf("accepted invalid context from %q", s)
			}
			if strings.ToLower(s) != c.String() {
				t.Fatalf("accepted %q but re-encodes as %q", s, c.String())
			}
		}
	})
}
