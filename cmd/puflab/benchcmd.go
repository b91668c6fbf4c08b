// bench: measure the authentication hot path with the standard benchmark
// harness and report instrumented-vs-bare overhead, so the observability
// plane's cost is a number in CI instead of a guess.  -json emits the
// machine-readable report checked into the repo as BENCH_PR4.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"testing"

	"xorpuf/internal/challenge"
	"xorpuf/internal/core"
	"xorpuf/internal/keyex"
	"xorpuf/internal/netauth"
	"xorpuf/internal/registry"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
	"xorpuf/internal/telemetry"
	"xorpuf/internal/telemetry/dtrace"
)

// benchResult is one benchmark's outcome in the JSON report.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// SessionsPerSec is set only by throughput benchmarks that report a
	// sessions/sec custom metric (the pipelined v2 arm).
	SessionsPerSec float64 `json:"sessions_per_sec,omitempty"`
}

// benchReport is the BENCH_PR4.json schema.
type benchReport struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// PipelinedGOMAXPROCS is the parallelism the pipelined v2 throughput
	// benchmark ran at (the -procs flag); the serial latency benchmarks
	// keep the ambient GOMAXPROCS so their ns/op stay comparable across
	// reports.
	PipelinedGOMAXPROCS int           `json:"pipelined_gomaxprocs"`
	Benchmarks          []benchResult `json:"benchmarks"`
	OverheadPercent     float64       `json:"auth_session_overhead_percent"`
	// TracedOverheadPercent is the traced arm (every session carrying a
	// distributed-trace context, the server recording a span tree per
	// session) vs the plain instrumented arm.  Gated at -trace-tolerance.
	TracedOverheadPercent float64 `json:"traced_session_overhead_percent"`
}

func runBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the machine-readable JSON report instead of a table")
	out := fs.String("o", "", "also write the JSON report to this path")
	outLong := fs.String("out", "", "alias for -o")
	baseline := fs.String("baseline", "", "prior JSON report to compare against (fails on regression)")
	tolerance := fs.Float64("tolerance", 15, "max %% auth_session_e2e ns/op regression vs -baseline before failing")
	n := fs.Int("n", 16, "challenges per benchmarked authentication session")
	seed := fs.Uint64("seed", 1, "model seed")
	best := fs.Int("best", 3, "repetitions per benchmark; the fastest is reported")
	traceTolerance := fs.Float64("trace-tolerance", 5, "max %% traced-vs-untraced session overhead before failing")
	procs := fs.Int("procs", 0, "GOMAXPROCS for the pipelined v2 throughput benchmark (0 = max(2, NumCPU)); serial benchmarks keep the ambient setting")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *out == "" {
		*out = *outLong
	}
	if *procs <= 0 {
		*procs = runtime.NumCPU()
		if *procs < 2 {
			*procs = 2
		}
	}

	report := benchReport{
		GoVersion:           runtime.Version(),
		GOOS:                runtime.GOOS,
		GOARCH:              runtime.GOARCH,
		CPUs:                runtime.NumCPU(),
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		PipelinedGOMAXPROCS: *procs,
	}
	nsPerOp := func(r testing.BenchmarkResult) float64 {
		if r.N == 0 {
			return 0
		}
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	// bestOf reruns a benchmark and keeps the fastest result.  Virtualized
	// and shared runners inflate wall-clock measurements erratically; the
	// minimum over a few repetitions is a far better estimate of intrinsic
	// cost than any single run, and it is what the regression gate compares.
	bestOf := func(run func() testing.BenchmarkResult) testing.BenchmarkResult {
		r := run()
		for i := 1; i < *best; i++ {
			if c := run(); nsPerOp(c) < nsPerOp(r) {
				r = c
			}
		}
		return r
	}
	add := func(name string, r testing.BenchmarkResult) benchResult {
		br := benchResult{
			Name:           name,
			Iterations:     r.N,
			NsPerOp:        nsPerOp(r),
			AllocsPerOp:    r.AllocsPerOp(),
			BytesPerOp:     r.AllocedBytesPerOp(),
			SessionsPerSec: r.Extra["sessions/sec"],
		}
		report.Benchmarks = append(report.Benchmarks, br)
		return br
	}

	// Micro: the two instruments on every hot path.
	ctr := telemetry.NewRegistry().Counter("bench_counter")
	add("counter_inc", bestOf(func() testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctr.Inc()
			}
		})
	}))
	hist := telemetry.NewRegistry().Histogram("bench_hist", telemetry.LatencyBuckets)
	add("histogram_observe", bestOf(func() testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hist.Observe(float64(i&1023) * 1e-6)
			}
		})
	}))

	// Micro: the reverse fuzzy extractor's cryptographic core — server-side
	// helper generation plus device-side reproduction, no network.
	kcfg := keyex.Config{M: 7, T: 8}
	ksrc := rng.New(*seed)
	w := make([]uint8, kcfg.N())
	for i := range w {
		w[i] = uint8(ksrc.Uint64() & 1)
	}
	add("keyex_derive", bestOf(func() testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				master, helper, err := keyex.Generate(kcfg, ksrc, w)
				if err != nil {
					b.Fatal(err)
				}
				key, _, err := keyex.Reproduce(kcfg, w, helper)
				if err != nil || key != master {
					b.Fatal("key did not reproduce")
				}
			}
		})
	}))

	// Macro: full client↔server sessions over loopback TCP, instrumented
	// (Default registry + tracer) vs bare (telemetry disabled), plus the
	// traced arm: same instrumented server, but every hello carries a
	// distributed-trace context so the server records the full span tree
	// (session, select, device_rtt) per session.  The traced-vs-untraced
	// delta is the cost of tracing itself and gates at -trace-tolerance.
	e2e := add("auth_session_e2e", bestOf(func() testing.BenchmarkResult {
		return benchAuthSession(*n, *seed, true, "")
	}))
	bare := add("auth_session_e2e_bare", bestOf(func() testing.BenchmarkResult {
		return benchAuthSession(*n, *seed, false, "")
	}))
	if bare.NsPerOp > 0 {
		report.OverheadPercent = (e2e.NsPerOp - bare.NsPerOp) / bare.NsPerOp * 100
	}
	benchTrace := dtrace.Context{Trace: dtrace.NewTraceID(), Span: dtrace.NewSpanID()}.String()
	traced := add("auth_session_traced", bestOf(func() testing.BenchmarkResult {
		return benchAuthSession(*n, *seed, true, benchTrace)
	}))
	if e2e.NsPerOp > 0 {
		report.TracedOverheadPercent = (traced.NsPerOp - e2e.NsPerOp) / e2e.NsPerOp * 100
	}

	// Macro: the same session with the shared-feature device — first a
	// single session per op on one warm persistent connection, then the
	// pipelined arm (one worker per proc, 16 multiplexed sessions per round trip)
	// whose sessions/sec figure is the BENCH_PR9 headline.  Only the
	// throughput arm runs at -procs: raising GOMAXPROCS above the core
	// count would turn the serial latency loops' cooperative goroutine
	// handoffs into OS context switches and skew their ns/op.
	add("auth_session_v2_e2e", bestOf(func() testing.BenchmarkResult {
		return benchAuthSessionV2(*n, *seed, false)
	}))
	prevProcs := runtime.GOMAXPROCS(*procs)
	add("auth_session_v2_pipelined", bestOf(func() testing.BenchmarkResult {
		return benchAuthSessionV2(*n, *seed, true)
	}))
	runtime.GOMAXPROCS(prevProcs)

	// Macro: a full key exchange — burn, helper generation, device
	// reproduction, mutual confirmation, channel upgrade — plus one
	// encrypted 1 KiB payload round-trip over the established channel.
	add("keyex_session_e2e", bestOf(func() testing.BenchmarkResult {
		return benchKeyexSession(*seed, kcfg)
	}))

	if *asJSON || *out != "" {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "puflab bench: %v\n", err)
			os.Exit(1)
		}
		b = append(b, '\n')
		if *out != "" {
			if err := os.WriteFile(*out, b, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "puflab bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "report written to %s\n", *out)
		}
		if *asJSON {
			os.Stdout.Write(b)
		}
	} else {
		fmt.Printf("%-26s %12s %14s %10s %10s\n", "benchmark", "iterations", "ns/op", "B/op", "allocs/op")
		for _, r := range report.Benchmarks {
			fmt.Printf("%-26s %12d %14.1f %10d %10d", r.Name, r.Iterations, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
			if r.SessionsPerSec > 0 {
				fmt.Printf("  (%.0f sessions/sec)", r.SessionsPerSec)
			}
			fmt.Println()
		}
		fmt.Printf("\nauth session overhead (instrumented vs bare): %+.2f%%\n", report.OverheadPercent)
		fmt.Printf("traced session overhead (traced vs untraced): %+.2f%%\n", report.TracedOverheadPercent)
	}
	if report.TracedOverheadPercent > *traceTolerance {
		fmt.Fprintf(os.Stderr, "puflab bench: traced session overhead %.2f%% exceeds %.0f%% tolerance\n",
			report.TracedOverheadPercent, *traceTolerance)
		os.Exit(1)
	}
	if *baseline != "" {
		if err := compareBaseline(report, *baseline, *tolerance); err != nil {
			fmt.Fprintf(os.Stderr, "puflab bench: %v\n", err)
			os.Exit(1)
		}
	}
}

// gatedBenchmarks are the macro benchmarks that fail CI on regression.
// Micro benchmarks are printed for context but never gate — single-digit
// nanosecond measurements on shared runners swing too wildly.  Baselines
// that predate an entry simply skip it ("new, no baseline entry"), so
// adding a gate here is backward-compatible with older reports.
var gatedBenchmarks = []string{"auth_session_e2e", "auth_session_v2_e2e", "keyex_session_e2e"}

// compareBaseline prints the per-metric delta against a prior report for
// every benchmark both reports know, then fails if any gated macro
// benchmark regressed more than tolerance percent.
func compareBaseline(report benchReport, path string, tolerance float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base benchReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("decoding baseline %s: %w", path, err)
	}
	prev := make(map[string]benchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		prev[b.Name] = b
	}
	gated := make(map[string]bool, len(gatedBenchmarks))
	for _, name := range gatedBenchmarks {
		gated[name] = true
	}
	fmt.Fprintf(os.Stderr, "baseline %s (tolerance %.0f%% on gated benchmarks):\n", path, tolerance)
	var failures []string
	for _, cur := range report.Benchmarks {
		p, ok := prev[cur.Name]
		if !ok || p.NsPerOp <= 0 {
			fmt.Fprintf(os.Stderr, "  %-24s %38.1f ns/op  (new, no baseline entry)\n", cur.Name, cur.NsPerOp)
			continue
		}
		change := (cur.NsPerOp - p.NsPerOp) / p.NsPerOp * 100
		mark := ""
		if gated[cur.Name] {
			mark = "  [gated]"
			if change > tolerance {
				mark = "  [gated: REGRESSED]"
				failures = append(failures,
					fmt.Sprintf("%s regressed %.2f%% (> %.0f%% tolerance)", cur.Name, change, tolerance))
			}
		}
		fmt.Fprintf(os.Stderr, "  %-24s %15.1f → %15.1f ns/op  %+8.2f%%%s\n",
			cur.Name, p.NsPerOp, cur.NsPerOp, change, mark)
	}
	gateSeen := false
	for _, name := range gatedBenchmarks {
		if _, ok := prev[name]; ok {
			gateSeen = true
		}
	}
	if !gateSeen {
		return fmt.Errorf("baseline %s has no usable gated benchmark entry", path)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%s vs %s", failures[0], path)
	}
	return nil
}

// benchKeyexSession measures one full key exchange plus an encrypted 1 KiB
// payload per iteration against a loopback server.  The model-backed device
// reproduces the key with zero bit errors, so this times the protocol and
// cryptography, not the error-correction tail.
func benchKeyexSession(seed uint64, kcfg keyex.Config) testing.BenchmarkResult {
	model := benchModel(seed, 4, 64)
	reg, err := registry.Open("", registry.Options{Seed: seed})
	if err != nil {
		fmt.Fprintf(os.Stderr, "puflab bench: %v\n", err)
		os.Exit(1)
	}
	defer reg.Close()
	const chipID = "bench-chip"
	if err := reg.Register(chipID, model, 0); err != nil {
		fmt.Fprintf(os.Stderr, "puflab bench: %v\n", err)
		os.Exit(1)
	}
	srv := netauth.NewServerWithRegistry(16, seed, reg)
	if err := srv.SetKeyExchange(kcfg); err != nil {
		fmt.Fprintf(os.Stderr, "puflab bench: %v\n", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "puflab bench: %v\n", err)
		os.Exit(1)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	client := &netauth.V2Client{
		Addr:   ln.Addr().String(),
		ChipID: chipID,
		Device: modelDevice{m: model},
		Cond:   silicon.Nominal,
	}
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	ctx := context.Background()
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ss, err := client.Establish(ctx)
			if err != nil {
				b.Fatalf("session %d: %v", i, err)
			}
			if err := ss.SendPayload(payload); err != nil {
				b.Fatalf("session %d payload: %v", i, err)
			}
			if err := ss.Close(); err != nil {
				b.Fatalf("session %d close: %v", i, err)
			}
		}
	})
}

// benchModel fabricates a synthetic ChipModel whose predictions need no
// silicon: random θ with thresholds that classify most random challenges
// stable.  Cheap to build, deterministic to answer.
func benchModel(seed uint64, width, stages int) *core.ChipModel {
	src := rng.New(seed)
	m := &core.ChipModel{Beta0: 1, Beta1: 1}
	for p := 0; p < width; p++ {
		theta := make([]float64, stages+1)
		for i := range theta {
			theta[i] = src.Float64()*0.5 - 0.25
		}
		theta[stages] = 0.5
		m.PUFs = append(m.PUFs, &core.PUFModel{Theta: theta, Thr0: 0.45, Thr1: 0.55})
	}
	return m
}

// modelDevice answers challenges straight from the enrolled model — a
// perfectly genuine, perfectly stable device, so every benchmarked session
// takes the zero-HD approve path.
type modelDevice struct{ m *core.ChipModel }

func (d modelDevice) ReadXOR(c challenge.Challenge, _ silicon.Condition) uint8 {
	bit, _ := d.m.PredictXOR(c)
	return bit
}

// fastModelDevice is modelDevice through the shared-feature fast path:
// Φ(c) is computed once into a scratch buffer and dotted against every
// member PUF.  The scratch makes it single-goroutine — allocate one per
// benchmark worker.
type fastModelDevice struct {
	m   *core.ChipModel
	phi []float64
}

func newFastModelDevice(m *core.ChipModel) *fastModelDevice {
	return &fastModelDevice{m: m, phi: make([]float64, challenge.FeatureDim(m.Stages()))}
}

func (d *fastModelDevice) ReadXOR(c challenge.Challenge, _ silicon.Condition) uint8 {
	challenge.FeaturesInto(c, d.phi)
	bit, _ := d.m.PredictXORFeatures(d.phi)
	return bit
}

// benchAuthSessionV2 measures authentication over the binary protocol
// against a loopback server.  Plain mode runs one session per iteration
// on a single warm connection; pipelined mode runs GOMAXPROCS workers,
// each multiplexing 16 sessions per round trip over its own connection,
// and reports a sessions/sec custom metric.
func benchAuthSessionV2(n int, seed uint64, pipelined bool) testing.BenchmarkResult {
	model := benchModel(seed, 4, 64)
	reg, err := registry.Open("", registry.Options{Seed: seed})
	if err != nil {
		fmt.Fprintf(os.Stderr, "puflab bench: %v\n", err)
		os.Exit(1)
	}
	defer reg.Close()
	const chipID = "bench-chip"
	if err := reg.Register(chipID, model, 0); err != nil {
		fmt.Fprintf(os.Stderr, "puflab bench: %v\n", err)
		os.Exit(1)
	}
	srv := netauth.NewServerWithRegistry(n, seed, reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "puflab bench: %v\n", err)
		os.Exit(1)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	addr := ln.Addr().String()
	ctx := context.Background()

	newClient := func() *netauth.V2Client {
		return &netauth.V2Client{
			Addr:   addr,
			ChipID: chipID,
			Device: newFastModelDevice(model),
			Cond:   silicon.Nominal,
			Policy: netauth.RetryPolicy{MaxAttempts: 1},
		}
	}
	if !pipelined {
		client := newClient()
		defer client.Close()
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := client.Authenticate(ctx)
				if err != nil || !res.Approved {
					b.Fatalf("session %d: approved=%v err=%v", i, res.Approved, err)
				}
			}
		})
	}
	const batch = 16
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			client := newClient()
			defer client.Close()
			for pb.Next() {
				results, err := client.AuthenticateBatch(ctx, batch)
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					if !res.Approved {
						b.Fatal("session denied")
					}
				}
			}
		})
		b.StopTimer()
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N*batch)/sec, "sessions/sec")
		}
	})
}

// benchAuthSession measures one full authentication session per iteration
// over a warm connection to a loopback server, with telemetry either wired
// or disabled.  A
// non-empty trace is sent as each session's distributed-trace context, so
// the server records the full per-session span tree.
func benchAuthSession(n int, seed uint64, instrumented bool, trace string) testing.BenchmarkResult {
	model := benchModel(seed, 4, 64)
	reg, err := registry.Open("", registry.Options{Seed: seed})
	if err != nil {
		fmt.Fprintf(os.Stderr, "puflab bench: %v\n", err)
		os.Exit(1)
	}
	defer reg.Close()
	const chipID = "bench-chip"
	if err := reg.Register(chipID, model, 0); err != nil {
		fmt.Fprintf(os.Stderr, "puflab bench: %v\n", err)
		os.Exit(1)
	}
	srv := netauth.NewServerWithRegistry(n, seed, reg)
	if !instrumented {
		srv.SetTelemetry(nil)
		srv.SetTracer(nil)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "puflab bench: %v\n", err)
		os.Exit(1)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	client := &netauth.V2Client{
		Addr:   ln.Addr().String(),
		ChipID: chipID,
		Device: modelDevice{m: model},
		Cond:   silicon.Nominal,
		Policy: netauth.RetryPolicy{MaxAttempts: 1},
		Trace:  trace,
	}
	defer client.Close()
	ctx := context.Background()
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := client.Authenticate(ctx)
			if err != nil || !res.Approved {
				b.Fatalf("session %d: approved=%v err=%v", i, res.Approved, err)
			}
		}
	})
}
