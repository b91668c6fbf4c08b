// Command perfbench is the repository's benchmark.  It drives real netauth
// protocol-v2 sessions over loopback TCP, from closed-loop clients in one
// process against a server in the same process, and checks every verdict.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it sets the deployment up three times (setup_s is the
// median), measures the untraced closed loop for --seconds and prints the
// end-to-end metrics.  With --trace 1 it sets up once, measures half the
// time untraced and half with outside-in instrumentation, and prints the
// per-layer ledger.  A human-readable report goes to standard error; the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// The run is incorrect, and exits 1, when any op errored, was denied or
// had nonzero Hamming distance, or when the durable journal audit fails.
// Build and run it from the repository root with perfbench/run.sh, once
// per workload:
//
//	for w in secure-n10 durable-quorum pipelined-mem; do
//		bash perfbench/run.sh --workload $w --seed 1 --seconds 30 --trace 0
//	done
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"xorpuf/internal/telemetry/dtrace"
)

// spanRingCapacity bounds the traced phase's span ring; the ledger analyses
// the ops whose spans are still in it at the end.
const spanRingCapacity = 1 << 16

type metricSpec struct{ name, unit string }

// endToEndSpecs are the untraced run's gated metrics; every workload
// reports all of them.
var endToEndSpecs = []metricSpec{
	{"sessions_per_s", "1/s"},
	{"auth_p50_us", "us"},
	{"auth_p90_us", "us"},
	{"cpu_us_per_session", "us"},
	{"allocs_per_session", "count"},
	{"setup_s", "s"},
}

// reportOnlySpecs are end-to-end figures printed in the report but not
// gated.  fail_ratio is 0 by design (a nonzero value makes the run
// incorrect).  auth_p99_us and the heap figures swing by more than any
// usable bound between runs on a shared host: the tail with scheduler and
// disk stalls, retained heap with the map-growth steps of the per-chip
// used-challenge sets.  Key exchanges run on durable-quorum only.
var reportOnlySpecs = []metricSpec{
	{"fail_ratio", "ratio"},
	{"auth_p99_us", "us"},
	{"heap_inuse_mib", "MiB"},
	{"heap_bytes_per_session", "bytes"},
	{"keyex_p50_us", "us"},
	{"keyex_p99_us", "us"},
}

// perLayerSpecs are the traced run's per-layer metrics; every workload
// reports all of them.
var perLayerSpecs = []metricSpec{
	{"wire.encode_ns_per_session", "ns"},
	{"wire.decode_ns_per_session", "ns"},
	{"wire.bytes_per_session", "bytes"},
	{"transport.writes_per_session", "count"},
	{"transport.reads_per_session", "count"},
	{"transport.client_wait_us", "us"},
	{"challenge.features_ns", "ns"},
	{"core.predict_ns", "ns"},
	{"core.candidates_per_challenge", "count"},
	{"core.select_us_per_session", "us"},
	{"core.select_us_per_session.n4", "us"},
	{"core.select_us_per_session.n8", "us"},
	{"core.select_us_per_session.n10", "us"},
	{"core.select_us_per_session.n12", "us"},
	{"core.select_exhausted_ratio.n4", "ratio"},
	{"core.select_exhausted_ratio.n8", "ratio"},
	{"core.select_exhausted_ratio.n10", "ratio"},
	{"core.select_exhausted_ratio.n12", "ratio"},
	{"registry.issue_us", "us"},
	{"registry.verdict_us", "us"},
	{"registry.fsync_issue_us", "us"},
	{"registry.wal_records_per_session", "count"},
	{"registry.wal_bytes_per_session", "bytes"},
	{"registry.shard_contention", "count"},
	{"repl.quorum_wait_us", "us"},
	{"silicon.read_ns", "ns"},
	{"silicon.reads_per_session", "count"},
	{"keyex.generate_us", "us"},
	{"keyex.reproduce_us", "us"},
	{"keyex.aead_seal_ns_per_kib", "ns"},
	{"netauth.session_us", "us"},
	{"netauth.device_rtt_us", "us"},
	{"netauth.select_self_us", "us"},
	{"runtime.gc_cycles_per_1k_sessions", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"ledger.unattributed_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// ledgerOnlySpecs are per-layer figures that are structurally zero on the
// workloads that bypass their layer (no fsync, no follower, no key
// exchange); the report prints them, the JSON leaves them out so no
// reported figure is a constant.
var ledgerOnlySpecs = []metricSpec{
	{"registry.fsyncs_per_session", "count"},
	{"registry.fsync_p50_us", "us"},
	{"registry.compactions", "count"},
	{"repl.apply_us", "us"},
	{"netauth.keyex_us", "us"},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole benchmark; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: secure-n10, durable-quorum or pipelined-mem")
	seed := fs.Uint64("seed", 1, "workload seed: derives the fleet, the devices and the client streams")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := findWorkload(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	case *seconds <= 0:
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	case wl.clients > runtime.NumCPU():
		// More client connections than CPUs measures the scheduler, not
		// the system: refuse instead of printing a mislabeled figure.
		fmt.Fprintf(stderr, "perfbench: refusing %s: %d client connections exceed %d CPUs\n",
			wl.name, wl.clients, runtime.NumCPU())
		return 2
	}
	dtrace.Default = dtrace.NewRecorder(spanRingCapacity)

	st := newStamp(wl, *seed)
	stampJSON, _ := json.Marshal(st)
	fmt.Fprintf(stdout, "stamp %s\n", stampJSON)
	fmt.Fprintf(stderr, "perfbench %s seed=%d trace=%d\n  %s\n", wl.name, *seed, *trace, stampJSON)

	dur := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 0 {
		res, err = runEndToEnd(wl, *seed, dur, stderr)
	} else {
		res, err = runLedger(wl, *seed, dur, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}

// setupRuns is how many times a --trace 0 run sets its deployment up;
// setup_s is the median.
const setupRuns = 3

// setupMedian sets the deployment up setupRuns times, keeping the last,
// and returns it with the median set-up time in seconds.
func setupMedian(wl workload, seed uint64) (*deployment, float64, error) {
	var d *deployment
	times := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			d.close()
		}
		start := time.Now()
		var err error
		if d, err = setup(wl, seed); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	sort.Float64s(times)
	return d, times[len(times)/2], nil
}

func runEndToEnd(wl workload, seed uint64, dur time.Duration, w io.Writer) (result, error) {
	d, setupS, err := setupMedian(wl, seed)
	if err != nil {
		return result{}, err
	}
	defer d.close()
	pr := d.runPhase(dur, false)
	m := pr.endToEnd()
	m["setup_s"] = setupS
	auditErr := d.audit(pr.wantBurned())

	fmt.Fprintf(w, "end-to-end (untraced, %.2f s, %d clients, %d ops attempted, %d failed):\n",
		pr.elapsed.Seconds(), wl.clients, pr.attempted, pr.failed)
	printMetrics(w, m, endToEndSpecs)
	printMetrics(w, m, reportOnlySpecs)
	fmt.Fprintf(w, "  per %v window, ops/s and auth p99 us:", min(windowLen, dur/10))
	for _, win := range pr.windows {
		fmt.Fprintf(w, " %.0f/%.0f", win.rate, micros(win.p99))
	}
	fmt.Fprintln(w)
	res := newResult(&pr.tally, auditErr, w)
	for _, s := range endToEndSpecs {
		res.Metrics[s.name] = jsonMetric{Value: m[s.name], Unit: s.unit}
	}
	return res, nil
}

func runLedger(wl workload, seed uint64, dur time.Duration, w io.Writer) (result, error) {
	d, err := setup(wl, seed)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer d.close()
	base := d.runPhase(dur/2, false)

	tel0 := d.readTelemetry()
	timer := &seamTimer{}
	traced := d.runTracedPhase(dur/2, timer)
	tel1 := d.readTelemetry()
	spans := dtrace.Default.Spans()

	var all tally
	all.add(&base.tally)
	all.add(&traced.tally)
	auditErr := d.audit(all.wantBurned())

	m, lg, err := d.layerMetrics(&base, &traced, timer, tel0, tel1, spans)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "end-to-end of the ledger run (untraced %.2f s, traced %.2f s):\n",
		base.elapsed.Seconds(), traced.elapsed.Seconds())
	printMetrics(w, base.endToEnd(), endToEndSpecs[:3])
	printLedger(w, lg, m)
	printMetrics(w, m, perLayerSpecs)
	printMetrics(w, m, ledgerOnlySpecs)
	res := newResult(&all, auditErr, w)
	for _, s := range perLayerSpecs {
		res.Metrics[s.name] = jsonMetric{Value: m[s.name], Unit: s.unit}
	}
	return res, nil
}

// audit runs the journal audit on durable deployments; wantBurned counts
// the measured phases' words, to which the warm-up's are added.
func (d *deployment) audit(wantBurned int) error {
	if !d.wl.durable {
		return nil
	}
	return d.auditJournals(d.warm.wantBurned() + wantBurned)
}

func newResult(t *tally, auditErr error, w io.Writer) result {
	res := result{
		Correct:   t.failed == 0 && auditErr == nil,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]jsonMetric),
	}
	if t.firstErr != nil {
		fmt.Fprintf(w, "FAILED ops: %d of %d; first: %v\n", t.failed, t.attempted, t.firstErr)
	}
	if auditErr != nil {
		fmt.Fprintf(w, "journal audit FAILED: %v\n", auditErr)
	}
	return res
}

func printMetrics(w io.Writer, m map[string]float64, specs []metricSpec) {
	for _, s := range specs {
		if v, ok := m[s.name]; ok {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", s.name, v, s.unit)
		}
	}
}

// stamp records what a result was measured on.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Clients    int    `json:"clients"`
	WALFS      string `json:"wal_fs"`
	Fsync      string `json:"fsync"`
	Transport  string `json:"transport"`
}

func newStamp(wl workload, seed uint64) stamp {
	st := stamp{
		Workload: wl.name, Seed: seed, Clients: wl.clients,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		WALFS:     "none (in-memory registry)",
		Fsync:     "none",
		Transport: "loopback TCP 127.0.0.1, netauth protocol v2, one process",
	}
	if wl.durable {
		st.WALFS = filesystemOf(scratchRoot)
		st.Fsync = "WAL appends without fsync on primary and follower; strict quorum of 1"
	}
	return st
}

// filesystemOf names the filesystem holding dir (created if missing).
func filesystemOf(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown: " + err.Error()
	}
	var sfs syscall.Statfs_t
	if err := syscall.Statfs(dir, &sfs); err != nil {
		return "unknown: " + err.Error()
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x9123683E: "btrfs",
		0x58465342: "xfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(sfs.Type)]; ok {
		return n
	}
	return fmt.Sprintf("statfs type %#x", sfs.Type)
}
