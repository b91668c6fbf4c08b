package dtrace

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// Dump is the JSON document served by /trace/spans and /traces and written
// to spans_final.json: one process's service tag and its recorded spans,
// newest first.  `puflab trace collect` merges several of these into one
// cross-process view.
type Dump struct {
	Service string `json:"service"`
	Count   int    `json:"count"`
	Spans   []View `json:"spans"`
}

// Snapshot captures the recorder's current contents as a Dump.
func (r *Recorder) Snapshot() Dump {
	spans := r.Spans()
	d := Dump{Service: r.Service(), Count: len(spans), Spans: make([]View, 0, len(spans))}
	for _, s := range spans {
		d.Spans = append(d.Spans, s.View())
	}
	return d
}

// MarshalJSONIndent renders the snapshot as indented JSON — the
// spans_final.json companion to telemetry's metrics_final.json.
func (r *Recorder) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(r.Snapshot(), "", "  ")
}

// Handler serves the recorder's spans as JSON, newest first.  Filters
// select before the ?n= cap, so "the last 5 locked-out sessions of chip-7"
// works as expected; junk values are tolerated (ignored, never an error):
//
//	?trace=<32hex>  keep only spans of one trace
//	?chip=<id>      keep only spans whose "chip" attr is id
//	?status=<s>     keep only spans with status s (ok, denied, refused:<code>)
//	?n=N            keep only the N most recent matches; N ≤ 0 or
//	                unparsable means all
func Handler(r *Recorder) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		tid, byTrace := ParseTraceID(q.Get("trace"))
		chip, status := q.Get("chip"), q.Get("status")
		n, _ := strconv.Atoi(q.Get("n"))
		d := Dump{Service: r.Service(), Spans: []View{}}
		for _, s := range r.Spans() {
			if n > 0 && len(d.Spans) == n {
				break
			}
			if (byTrace && s.Trace != tid) || (chip != "" && s.Attrs["chip"] != chip) ||
				(status != "" && s.Status != status) {
				continue
			}
			d.Spans = append(d.Spans, s.View())
		}
		d.Count = len(d.Spans)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(d) //nolint:errcheck
	}
}
