package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xorpuf/internal/telemetry/dtrace"
)

// sessionRing is a session-record ring holding two records of chip-1, an
// approval then a denial — what /traces serves in production.
func sessionRing() *dtrace.Recorder {
	r := dtrace.NewRecorder(16)
	for _, st := range []struct{ session, status string }{{"s1", "ok"}, {"s2", "denied"}} {
		r.Record(dtrace.Span{Name: "netauth.session", Status: st.status,
			Attrs: map[string]string{"chip": "chip-1", "session": st.session}})
	}
	return r
}

// tracesEndpoint mounts a session-record ring at /traces, as serve does.
func tracesEndpoint(r *dtrace.Recorder) Endpoint {
	return Endpoint{Path: "/traces", Handler: dtrace.Handler(r)}
}

func TestAdminMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("requests_total").Add(3)
	mux := AdminMux(reg, func() any {
		return map[string]any{"status": "ok", "chips": 2}
	}, tracesEndpoint(sessionRing()))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	resp, body := get("/metrics")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "counter requests_total 3") {
		t.Fatalf("/metrics: status %d body %q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}

	resp, body = get("/metrics?format=json")
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics?format=json did not parse: %v\n%s", err, body)
	}
	if snap.Counters["requests_total"] != 3 {
		t.Fatalf("JSON snapshot counters = %+v", snap.Counters)
	}

	resp, body = get("/healthz")
	var hz map[string]any
	if err := json.Unmarshal([]byte(body), &hz); err != nil || hz["status"] != "ok" || hz["chips"] != float64(2) {
		t.Fatalf("/healthz = %q err=%v", body, err)
	}

	resp, body = get("/traces?n=1")
	var traces dtrace.Dump
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("/traces did not parse: %v", err)
	}
	if len(traces.Spans) != 1 || traces.Spans[0].Attrs["session"] != "s2" {
		t.Fatalf("/traces?n=1 = %+v, want newest only", traces)
	}

	resp, _ = get("/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", resp.StatusCode)
	}
	resp, _ = get("/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status = %d", resp.StatusCode)
	}
}

// TestAdminMuxContentTypes pins the content-type contract: /metrics is the
// text scrape format, every JSON endpoint (including extras mounted the way
// /timeseries, /slo, and /alerts are) serves exactly ContentTypeJSON.
// Regression test for the header being set after the first body write (at
// which point it is silently ignored) or drifting between endpoints.
func TestAdminMuxContentTypes(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("requests_total").Inc()
	extra := Endpoint{Path: "/extra", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, map[string]int{"ok": 1})
	})}
	srv := httptest.NewServer(AdminMux(reg, nil, tracesEndpoint(sessionRing()), extra))
	defer srv.Close()

	cases := []struct {
		path string
		want string
	}{
		{"/metrics", ContentTypeText},
		{"/metrics?format=json", ContentTypeJSON},
		{"/healthz", ContentTypeJSON},
		{"/traces", ContentTypeJSON},
		{"/traces?n=2", ContentTypeJSON},
		{"/extra", ContentTypeJSON},
	}
	for _, tc := range cases {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d", tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != tc.want {
			t.Errorf("%s Content-Type = %q, want %q", tc.path, got, tc.want)
		}
	}
}

// TestAdminMuxNilDependencies: every dependency may be nil and the plane
// must still serve.
func TestAdminMuxNilDependencies(t *testing.T) {
	srv := httptest.NewServer(AdminMux(nil, nil, tracesEndpoint(nil)))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/metrics?format=json", "/healthz", "/traces"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d with nil deps", path, resp.StatusCode)
		}
	}
}
