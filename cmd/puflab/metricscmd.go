// metrics: scrape a running serve instance's admin plane and pretty-print
// the observability snapshot — counters, gauges, and histogram summaries
// (count, mean, p50/p90/p99) — without needing a Prometheus stack.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"xorpuf/internal/telemetry"
)

func runMetrics(args []string) {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7411", "admin HTTP address of a serve instance (its -admin flag)")
	raw := fs.Bool("raw", false, "dump the raw text scrape instead of the summary table")
	asJSON := fs.Bool("json", false, "dump the raw JSON snapshot instead of the summary table")
	timeout := fs.Duration("timeout", 5*time.Second, "scrape timeout")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	path := "/metrics"
	if *asJSON || !*raw {
		path += "?format=json"
	}
	body := adminGet(&http.Client{Timeout: *timeout}, *addr, path)
	if *raw || *asJSON {
		os.Stdout.Write(body)
		if len(body) > 0 && body[len(body)-1] != '\n' {
			fmt.Println()
		}
		return
	}

	var snap telemetry.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		fmt.Fprintf(os.Stderr, "puflab metrics: decoding snapshot: %v\n", err)
		os.Exit(1)
	}
	printSnapshot(os.Stdout, snap)
}

// printSnapshot renders the operator-facing summary: sorted counters and
// gauges, then one row per histogram with its distribution summary.
func printSnapshot(w io.Writer, snap telemetry.Snapshot) {
	section := func(title string) { fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title))) }

	if len(snap.Counters) > 0 {
		section("counters")
		for _, name := range sortedKeys(snap.Counters) {
			fmt.Fprintf(w, "  %-40s %d\n", name, snap.Counters[name])
		}
		fmt.Fprintln(w)
	}
	if len(snap.Gauges) > 0 {
		section("gauges")
		for _, name := range sortedKeys(snap.Gauges) {
			fmt.Fprintf(w, "  %-40s %d\n", name, snap.Gauges[name])
		}
		fmt.Fprintln(w)
	}
	if len(snap.Histograms) > 0 {
		section("histograms")
		fmt.Fprintf(w, "  %-40s %10s %12s %12s %12s %12s\n", "name", "count", "mean", "p50", "p90", "p99")
		for _, name := range sortedKeys(snap.Histograms) {
			h := snap.Histograms[name]
			fmt.Fprintf(w, "  %-40s %10d %12s %12s %12s %12s\n", name, h.Count,
				sig3(h.Mean()), sig3(h.Quantile(0.5)), sig3(h.Quantile(0.9)), sig3(h.Quantile(0.99)))
		}
	}
}

// sig3 renders a value to three significant digits, the right precision for
// eyeballing latencies that span microseconds to seconds.
func sig3(v float64) string {
	return fmt.Sprintf("%.3g", v)
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
