package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// Content types the admin plane serves.  /metrics is the text scrape
// format; every other endpoint is JSON.  These are package constants (not
// inline literals) so the regression test and every handler agree on the
// exact header value.
const (
	ContentTypeText = "text/plain; charset=utf-8"
	ContentTypeJSON = "application/json"
)

// WriteJSON encodes v with the JSON content type set before the first
// body byte — after the first Write the header is immutable, so every
// error path must decide its type up front.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", ContentTypeJSON)
	_ = json.NewEncoder(w).Encode(v)
}

// Endpoint is an extra handler to mount on the admin mux — the session
// record ring (/traces), the span ring (/trace/spans), and the time-series
// and SLO planes (/timeseries, /slo, /alerts) are mounted this way, so the
// mux stays free of their packages.  Extra endpoints returning JSON must
// set ContentTypeJSON themselves; dtrace.Handler, history.Sampler.Handler
// and the slo.Engine handlers do.
type Endpoint struct {
	Path    string
	Handler http.Handler
}

// AdminMux builds the operator-facing HTTP surface `puflab serve -admin`
// exposes:
//
//	/metrics        text scrape format (?format=json for the JSON snapshot)
//	/healthz        JSON liveness payload from the healthz callback
//	/debug/pprof/*  the standard runtime profiler endpoints
//
// plus any extra endpoints (/traces, /trace/spans, /timeseries, /slo,
// /alerts in production).
//
// Content-type contract, pinned by TestAdminMuxContentTypes: /metrics
// serves ContentTypeText; every JSON endpoint serves ContentTypeJSON.
//
// reg and healthz may each be nil; the endpoints degrade to an empty
// snapshot and a bare {"status":"ok"}.  The mux is deliberately built by
// hand (not net/http.DefaultServeMux) so importing net/http/pprof's
// handlers never leaks profiling onto a mux the caller didn't ask for.
func AdminMux(reg *Registry, healthz func() any, extra ...Endpoint) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := reg.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			body, err := snap.MarshalJSONIndent()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", ContentTypeJSON)
			_, _ = w.Write(body)
			return
		}
		w.Header().Set("Content-Type", ContentTypeText)
		_ = snap.WriteText(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		var payload any = map[string]string{"status": "ok"}
		if healthz != nil {
			payload = healthz()
		}
		WriteJSON(w, payload)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, e := range extra {
		if e.Handler != nil {
			mux.Handle(e.Path, e.Handler)
		}
	}
	return mux
}
