package main

import (
	"context"
	crand "crypto/rand"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"xorpuf/internal/challenge"
	"xorpuf/internal/core"
	"xorpuf/internal/keyex"
	"xorpuf/internal/keyex/aead"
	"xorpuf/internal/registry"
	"xorpuf/internal/registry/fleet"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
	"xorpuf/internal/telemetry"
	"xorpuf/internal/telemetry/dtrace"
	"xorpuf/internal/wire"
)

// The ledger measures every layer from outside the program: a counting
// net.Conn handed to the client's dialer (transport, wire bytes), a timing
// core.Device wrapper (silicon), a timing wrapper on the registry's
// commit-wait seam (repl), the spans the server already emits (netauth),
// the registry's own telemetry counters, and microbenchmarks of each
// layer's public functions on the workload's models and options.

// unattributedBound is the share of client-observed auth latency the
// ledger may leave unexplained before the report flags the workload.
const unattributedBound = 0.15

// sweepWidths are the XOR widths of the selection-layer sweep.
var sweepWidths = []int{4, 8, 10, 12}

// core.candidates_per_challenge searches yieldCandidates candidates on each
// of the workload's first yieldModels models.
const (
	yieldModels     = 4
	yieldCandidates = 1 << 17
)

// probe is one client's instrumentation for a traced phase.  Only its
// client's goroutine touches it.
type probe struct {
	conn     connStats
	reads    int64
	readTime time.Duration
	ops      []tracedOp
}

type connStats struct {
	reads, writes       int64
	bytesIn, bytesOut   int64
	readWait, writeTime time.Duration
}

type probeSnap struct {
	conn     connStats
	readTime time.Duration
}

// tracedOp is one successful traced op as the client saw it.
type tracedOp struct {
	trace    string
	keyex    bool
	sessions int
	lat      time.Duration
	device   time.Duration // inside Device.ReadXOR
	wait     time.Duration // blocked in conn Read or Write
}

func (p *probe) snap() probeSnap { return probeSnap{conn: p.conn, readTime: p.readTime} }

func (p *probe) record(trace string, isKeyex bool, batch int, lat time.Duration, before probeSnap) {
	op := tracedOp{
		trace: trace, keyex: isKeyex, sessions: batch, lat: lat,
		device: p.readTime - before.readTime,
		wait:   p.conn.readWait - before.conn.readWait + p.conn.writeTime - before.conn.writeTime,
	}
	if isKeyex {
		op.sessions = 1
	}
	p.ops = append(p.ops, op)
}

// countingConn counts and times a client connection's syscalls.
type countingConn struct {
	net.Conn
	s *connStats
}

func (c *countingConn) Read(b []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(b)
	c.s.readWait += time.Since(start)
	c.s.reads++
	c.s.bytesIn += int64(n)
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(b)
	c.s.writeTime += time.Since(start)
	c.s.writes++
	c.s.bytesOut += int64(n)
	return n, err
}

// timedDevice times every response read of the device it wraps.
type timedDevice struct {
	dev core.Device
	p   *probe
}

func (t *timedDevice) ReadXOR(c challenge.Challenge, cond silicon.Condition) uint8 {
	start := time.Now()
	b := t.dev.ReadXOR(c, cond)
	t.p.readTime += time.Since(start)
	t.p.reads++
	return b
}

// seamTimer times the registry's commit-wait seam: the quorum wait on a
// replicated registry, an empty call on a standalone one.
type seamTimer struct {
	calls atomic.Int64
	ns    atomic.Int64
}

// wrap returns a CommitWaiter that times next (nil: no waiter).  Server
// session goroutines call it concurrently.
func (t *seamTimer) wrap(next registry.CommitWaiter) registry.CommitWaiter {
	return func(ctx context.Context, seq uint64) error {
		start := time.Now()
		var err error
		if next != nil {
			err = next(ctx, seq)
		}
		t.ns.Add(int64(time.Since(start)))
		t.calls.Add(1)
		return err
	}
}

func (t *seamTimer) meanUs() float64 {
	if n := t.calls.Load(); n > 0 {
		return float64(t.ns.Load()) / float64(n) / 1e3
	}
	return 0
}

// telemetrySnap holds the registry and replication series the ledger
// diffs, and the primary registry's journal position.
type telemetrySnap struct {
	seq                                 uint64
	walRecords, walBytes, contention    uint64
	walAppend, fsync, apply, compaction telemetry.HistogramSnapshot
}

func (d *deployment) readTelemetry() telemetrySnap {
	reg := telemetry.Default
	hist := func(name string) telemetry.HistogramSnapshot {
		if h := reg.FindHistogram(name); h != nil {
			return h.Snapshot()
		}
		return telemetry.HistogramSnapshot{}
	}
	return telemetrySnap{
		seq:        d.reg.Seq(),
		walRecords: reg.Counter("registry_wal_records_total").Value(),
		walBytes:   reg.Counter("registry_wal_bytes_total").Value(),
		contention: reg.Counter("registry_shard_contention_total").Value(),
		walAppend:  hist("registry_wal_append_seconds"),
		fsync:      hist("registry_wal_fsync_seconds"),
		apply:      hist("repl_apply_seconds"),
		compaction: hist("registry_compaction_seconds"),
	}
}

func histDelta(before, after telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	d := after
	d.Count -= before.Count
	d.Sum -= before.Sum
	d.Counts = append([]uint64(nil), after.Counts...)
	for i := range before.Counts {
		if i < len(d.Counts) {
			d.Counts[i] -= before.Counts[i]
		}
	}
	return d
}

// gcCPU is the runtime's cumulative GC and total CPU-time estimates.
type gcCPU struct{ gc, total float64 }

func readGCCPU() gcCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var g gcCPU
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.total = s[1].Value.Float64()
	}
	return g
}

func (g gcCPU) since(before gcCPU) float64 {
	if dt := g.total - before.total; dt > 0 {
		return (g.gc - before.gc) / dt
	}
	return 0
}

// layers is the per-op self-time breakdown of traced auth calls, summed
// over the analysed calls.
type layers struct {
	calls, sessions int
	lat             time.Duration
	transport       time.Duration // client blocked in I/O minus server-active time
	netauth         time.Duration // server-active time outside selection
	core            time.Duration // select span minus its journal write and quorum wait
	registry        time.Duration // journal writes: issue record, verdict records
	repl            time.Duration // quorum-wait child spans
	silicon         time.Duration // device reads
	wire            time.Duration // client-side codec, from the wire microbenchmark
}

func (l *layers) sum() time.Duration {
	return l.transport + l.netauth + l.core + l.registry + l.repl + l.silicon + l.wire
}

// spanStats are the netauth span means the ledger reports.
type spanStats struct {
	session, rtt, selectSelf, keyex meanD
}

type meanD struct {
	n   int
	sum time.Duration
}

func (m *meanD) add(d time.Duration) { m.n++; m.sum += d }

func (m meanD) us() float64 {
	if m.n == 0 {
		return 0
	}
	return micros(m.sum) / float64(m.n)
}

type interval struct{ lo, hi time.Time }

func spanInterval(s dtrace.Span) interval {
	return interval{s.Start, s.Start.Add(time.Duration(s.Seconds * float64(time.Second)))}
}

// unionLen is the length of the union of the intervals.
func unionLen(iv []interval) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo.Before(iv[j].lo) })
	var total time.Duration
	var cur interval
	for i, x := range iv {
		switch {
		case i == 0:
			cur = x
		case !x.lo.After(cur.hi):
			if x.hi.After(cur.hi) {
				cur.hi = x.hi
			}
		default:
			total += cur.hi.Sub(cur.lo)
			cur = x
		}
	}
	if len(iv) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total
}

// journalCost is what one journal record costs the server's blocking path.
type journalCost struct {
	perRecord time.Duration // WAL append plus fsync, mean over every append
	// verdictRecords is the mean number of records a session journals
	// after its issuance: the verdict and drift-detector state.
	verdictRecords float64
}

// analyseSpans joins the traced ops with the spans the server recorded for
// them.  Ops whose spans were evicted from the ring are skipped.
// wireClient is the device side's codec cost per session in nanoseconds.
func analyseSpans(ops []tracedOp, spans []dtrace.Span, jc journalCost, wireClient float64) (layers, spanStats) {
	byTrace := make(map[dtrace.TraceID][]dtrace.Span)
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	var l layers
	var st spanStats
	for _, op := range ops {
		tc, ok := dtrace.ParseContext(op.trace)
		if !ok {
			continue
		}
		var sess, rtt []interval
		var sel, quorum time.Duration
		nSel := 0
		for _, s := range byTrace[tc.Trace] {
			d := time.Duration(s.Seconds * float64(time.Second))
			switch s.Name {
			case "netauth.keyex":
				st.keyex.add(d)
			case "netauth.session":
				sess = append(sess, spanInterval(s))
			case "device_rtt":
				rtt = append(rtt, spanInterval(s))
			case "select":
				sel += d
				nSel++
			case "repl.quorum_wait":
				quorum += d
			}
		}
		if op.keyex || len(sess) != op.sessions || len(rtt) != op.sessions || nSel != 1 {
			continue
		}
		for _, iv := range sess {
			st.session.add(iv.hi.Sub(iv.lo))
		}
		for _, iv := range rtt {
			st.rtt.add(iv.hi.Sub(iv.lo))
		}
		st.selectSelf.add(sel - quorum)
		active := unionLen(sess) - unionLen(rtt)
		// One issue record is journaled inside the select span; the
		// verdict records fall in the server's time after the responses.
		issueRec := min(jc.perRecord, sel-quorum)
		verdictRecs := min(time.Duration(jc.verdictRecords*float64(op.sessions)*float64(jc.perRecord)), max(active-sel, 0))
		l.calls++
		l.sessions += op.sessions
		l.lat += op.lat
		l.transport += max(op.wait-active, 0)
		l.netauth += max(active-sel, 0) - verdictRecs
		l.core += sel - quorum - issueRec
		l.registry += issueRec + verdictRecs
		l.repl += quorum
		l.silicon += op.device
		l.wire += time.Duration(wireClient * float64(op.sessions))
	}
	return l, st
}

// timePerCall runs fn for about budget, in growing chunks so the clock is
// read rarely, and returns the mean nanoseconds per call.
func timePerCall(budget time.Duration, fn func()) float64 {
	n, chunk := 0, 1
	start := time.Now()
	for {
		for i := 0; i < chunk; i++ {
			fn()
		}
		n += chunk
		el := time.Since(start)
		if el >= budget {
			return float64(el.Nanoseconds()) / float64(n)
		}
		if el < budget/64 {
			chunk *= 2
		}
	}
}

// wireCost is the per-session codec cost of frames shaped like the
// workload's auth sessions.
type wireCost struct {
	encodeNs, decodeNs float64 // all four frames of a session, both ends
	clientNs           float64 // the device side's share: encode hello and responses, decode challenges and verdict
}

func measureWire(wl workload, budget time.Duration) wireCost {
	stages := silicon.DefaultParams().Stages
	session := make([]byte, wire.SessionLen)
	frames := []*wire.Msg{
		{Type: wire.THello, Stream: 1, ChipID: "chip-0", Batch: wl.batch, Caps: wire.CapChaCha20Poly1305},
		{Type: wire.TChallenges, Stream: 1, Session: session, Width: stages, Count: challengesPerSession,
			Packed: make([]byte, wire.PackedLen(stages*challengesPerSession))},
		{Type: wire.TResponses, Stream: 1, Session: session, Count: challengesPerSession,
			Packed: make([]byte, wire.PackedLen(challengesPerSession))},
		{Type: wire.TVerdict, Stream: 1, Approved: true},
	}
	// A hello opens a whole batch, so a session pays 1/batch of it.
	share := []float64{1 / float64(wl.batch), 1, 1, 1}
	var c wireCost
	buf := make([]byte, 0, 512)
	var m wire.Msg
	for i, f := range frames {
		enc := timePerCall(budget, func() { buf = wire.AppendFrame(buf[:0], f) })
		raw := wire.AppendFrame(nil, f)
		dec := timePerCall(budget, func() {
			if err := wire.Decode(raw, &m); err != nil {
				panic(err)
			}
		})
		c.encodeNs += enc * share[i]
		c.decodeNs += dec * share[i]
		switch f.Type {
		case wire.THello, wire.TResponses:
			c.clientNs += enc * share[i]
		default:
			c.clientNs += dec * share[i]
		}
	}
	return c
}

// measureCore times the feature transform, the XOR model prediction and
// stable-challenge selection on the workload's enrolled models.
func measureCore(models []*core.ChipModel, seed uint64, budget time.Duration, out map[string]float64) {
	src := rng.New(seed).Split("perfbench-core")
	stages := models[0].Stages()
	cs := challenge.RandomBatch(src, 1024, stages)
	phi := make([]float64, challenge.FeatureDim(stages))
	i := 0
	out["challenge.features_ns"] = timePerCall(budget, func() {
		challenge.FeaturesInto(cs[i&1023], phi)
		i++
	})
	phis := make([][]float64, len(cs))
	for j, c := range cs {
		phis[j] = challenge.Features(c)
	}
	var sink uint8
	out["core.predict_ns"] = timePerCall(budget, func() {
		b, _ := models[0].PredictXORFeatures(phis[i&1023])
		sink ^= b
		i++
	})

	// Asked for as many challenges as it may examine candidates, Next
	// examines exactly that many and returns the ones predicted stable.
	probed := models[:min(len(models), yieldModels)]
	found := 0
	for k, m := range probed {
		cs, _, _ := core.NewSelector(m, rng.New(seed).Fork("perfbench-yield", k)).Next(yieldCandidates, yieldCandidates)
		found += len(cs)
	}
	out["core.candidates_per_challenge"] = float64(len(probed)*yieldCandidates) / float64(max(found, 1))

	sels := make([]*core.Selector, len(models))
	for k, m := range models {
		sels[k] = core.NewSelector(m, rng.New(seed).Fork("perfbench-select", k))
	}
	calls := 0
	start := time.Now()
	for calls < len(sels) || time.Since(start) < budget {
		_, _, _ = sels[calls%len(sels)].Next(challengesPerSession, 0)
		calls++
	}
	out["core.select_us_per_session"] = micros(time.Since(start)) / float64(calls)
}

// measureSweep times Selector.Next(16) on one V/T-enrolled chip narrowed
// to each sweep width, the paper's subset method for n-sweeps.  The search
// cap is Next's default of 10,000 candidates per challenge; a call that
// hits it counts as exhausted.
func measureSweep(seed uint64, budget time.Duration, out map[string]float64) error {
	top := sweepWidths[len(sweepWidths)-1]
	chip := fleet.Chip(seed, 0, silicon.DefaultParams(), top)
	cfg := core.DefaultEnrollConfig()
	cfg.Conditions = silicon.Corners()
	enr, err := core.EnrollChip(chip, rng.New(seed).Fork("enroll", 0), cfg)
	if err != nil {
		return fmt.Errorf("width sweep enrollment: %w", err)
	}
	for _, n := range sweepWidths {
		sel := core.NewSelector(enr.Model.Narrow(n), rng.New(seed).Fork("perfbench-sweep", n))
		calls, exhausted := 0, 0
		start := time.Now()
		for calls < 3 || time.Since(start) < budget {
			_, _, err := sel.Next(challengesPerSession, 0)
			var ex *core.ErrSelectionExhausted
			if errors.As(err, &ex) {
				exhausted++
			} else if err != nil {
				return fmt.Errorf("width sweep n=%d: %w", n, err)
			}
			calls++
		}
		out[fmt.Sprintf("core.select_us_per_session.n%d", n)] = micros(time.Since(start)) / float64(calls)
		out[fmt.Sprintf("core.select_exhausted_ratio.n%d", n)] = float64(exhausted) / float64(calls)
	}
	return nil
}

// measureRegistry times Entry.Issue and Entry.Verdict on a scratch
// registry opened with the workload's storage options, and Entry.Issue on
// one that fsyncs every WAL append: the cost the gated workloads leave out.
func measureRegistry(wl workload, model *core.ChipModel, seed uint64, budget time.Duration, out map[string]float64) error {
	issue, verdict, err := probeRegistry(wl.durable, false, model, seed, budget)
	if err != nil {
		return err
	}
	out["registry.issue_us"], out["registry.verdict_us"] = issue, verdict
	out["registry.fsync_issue_us"], _, err = probeRegistry(true, true, model, seed, budget)
	return err
}

// probeRegistry registers model in a fresh registry, with a WAL under
// scratchRoot when wal is set, and returns the mean microseconds of
// Issue(16) and of an approving Verdict.
func probeRegistry(wal, fsync bool, model *core.ChipModel, seed uint64, budget time.Duration) (issueUs, verdictUs float64, err error) {
	dir := ""
	if wal {
		if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
			return 0, 0, err
		}
		if dir, err = os.MkdirTemp(scratchRoot, "probe-"); err != nil {
			return 0, 0, err
		}
		defer os.RemoveAll(dir)
	}
	reg, err := registry.Open(dir, registry.Options{Seed: seed, Fsync: fsync, SnapshotEvery: -1})
	if err != nil {
		return 0, 0, err
	}
	defer reg.Close()
	if err := reg.Register("probe-0", model, 0); err != nil {
		return 0, 0, err
	}
	e := reg.Lookup("probe-0")
	var issueErr error
	issueUs = timePerCall(budget, func() {
		if _, _, err := e.Issue(challengesPerSession, 0); err != nil && issueErr == nil {
			issueErr = err
		}
	}) / 1e3
	if issueErr != nil {
		return 0, 0, fmt.Errorf("registry probe issue: %w", issueErr)
	}
	verdictUs = timePerCall(budget, func() { e.Verdict(true, 0) }) / 1e3
	return issueUs, verdictUs, nil
}

// measureKeyex times the reverse fuzzy extractor on the benchmark's code
// and the channel AEAD on a 1 KiB payload.
func measureKeyex(seed uint64, budget time.Duration, out map[string]float64) error {
	src := rng.New(seed).Split("perfbench-keyex")
	w := make([]uint8, keyexConfig.N())
	for i := range w {
		w[i] = src.Bit()
	}
	_, helper, err := keyex.Generate(keyexConfig, crand.Reader, w)
	if err != nil {
		return err
	}
	var genErr error
	out["keyex.generate_us"] = timePerCall(budget, func() {
		if _, _, err := keyex.Generate(keyexConfig, crand.Reader, w); err != nil {
			genErr = err
		}
	}) / 1e3
	out["keyex.reproduce_us"] = timePerCall(budget, func() {
		if _, _, err := keyex.Reproduce(keyexConfig, w, helper); err != nil {
			genErr = err
		}
	}) / 1e3
	if genErr != nil {
		return genErr
	}
	var key [aead.KeySize]byte
	var nonce [aead.NonceSize]byte
	if _, err := io.ReadFull(src, key[:]); err != nil {
		return err
	}
	box := make([]byte, 0, payloadBytes+64)
	out["keyex.aead_seal_ns_per_kib"] = timePerCall(budget, func() {
		box = aead.Seal(box[:0], &key, &nonce, payload, nil)
	}) * 1024 / payloadBytes
	return nil
}

// runTracedPhase is runPhase with every op traced and the registry's
// commit-wait seam timed; the seam is restored afterwards.
func (d *deployment) runTracedPhase(dur time.Duration, timer *seamTimer) phaseResult {
	var next registry.CommitWaiter
	if d.primary != nil {
		next = d.primary.WaitCommittedCtx
	}
	d.reg.SetCommitWaiter(timer.wrap(next))
	defer d.reg.SetCommitWaiter(next)
	return d.runPhase(dur, true)
}

// layerMetrics assembles the per-layer metrics: the traced phase's probes,
// spans and telemetry deltas, the untraced phase's runtime figures, and the
// layer microbenchmarks.
func (d *deployment) layerMetrics(base, traced *phaseResult, timer *seamTimer,
	tel0, tel1 telemetrySnap, spans []dtrace.Span) (map[string]float64, layers, error) {
	const budget = 150 * time.Millisecond
	m := make(map[string]float64)
	wc := measureWire(d.wl, budget/4)
	m["wire.encode_ns_per_session"] = wc.encodeNs
	m["wire.decode_ns_per_session"] = wc.decodeNs
	models := make([]*core.ChipModel, len(d.ids))
	for i, id := range d.ids {
		models[i] = d.reg.Lookup(id).Model()
	}
	measureCore(models, d.seed, budget, m)
	if err := measureSweep(d.seed, budget, m); err != nil {
		return nil, layers{}, err
	}
	if err := measureRegistry(d.wl, models[0], d.seed, budget, m); err != nil {
		return nil, layers{}, fmt.Errorf("registry probe: %w", err)
	}
	if err := measureKeyex(d.seed, budget/2, m); err != nil {
		return nil, layers{}, fmt.Errorf("keyex probe: %w", err)
	}

	var conn connStats
	var reads int64
	var readTime, wait time.Duration
	var ops []tracedOp
	authCalls := 0
	for _, cl := range d.clients {
		p := cl.probe
		conn.reads += p.conn.reads
		conn.writes += p.conn.writes
		conn.bytesIn += p.conn.bytesIn
		conn.bytesOut += p.conn.bytesOut
		reads += p.reads
		readTime += p.readTime
		for _, op := range p.ops {
			if !op.keyex {
				wait += op.wait
				authCalls++
			}
		}
		ops = append(ops, p.ops...)
	}
	done := float64(max(traced.completed, 1))
	m["wire.bytes_per_session"] = float64(conn.bytesIn+conn.bytesOut) / done
	m["transport.writes_per_session"] = float64(conn.writes) / done
	m["transport.reads_per_session"] = float64(conn.reads) / done
	m["transport.client_wait_us"] = micros(wait) / float64(max(authCalls, 1))
	m["silicon.read_ns"] = float64(readTime.Nanoseconds()) / float64(max(reads, 1))
	m["silicon.reads_per_session"] = float64(reads) / done

	fsync := histDelta(tel0.fsync, tel1.fsync)
	m["registry.wal_records_per_session"] = float64(tel1.walRecords-tel0.walRecords) / done
	m["registry.wal_bytes_per_session"] = float64(tel1.walBytes-tel0.walBytes) / done
	m["registry.fsyncs_per_session"] = float64(fsync.Count) / done
	m["registry.fsync_p50_us"] = fsync.Quantile(0.5) * 1e6
	m["registry.compactions"] = float64(histDelta(tel0.compaction, tel1.compaction).Count)
	m["registry.shard_contention"] = float64(tel1.contention - tel0.contention)
	m["repl.quorum_wait_us"] = timer.meanUs()
	m["repl.apply_us"] = histDelta(tel0.apply, tel1.apply).Mean() * 1e6

	var jc journalCost
	appendD := histDelta(tel0.walAppend, tel1.walAppend)
	if appendD.Count > 0 {
		jc.perRecord = time.Duration((appendD.Sum + fsync.Sum) / float64(appendD.Count) * float64(time.Second))
	}
	// Every op journals one issue record; the rest of the primary's
	// records are the sessions' verdict-side records.
	if calls := len(ops); calls > 0 {
		jc.verdictRecords = float64(int64(tel1.seq-tel0.seq)-int64(calls)) / done
	}
	l, st := analyseSpans(ops, spans, jc, wc.clientNs)
	m["netauth.session_us"] = st.session.us()
	m["netauth.device_rtt_us"] = st.rtt.us()
	m["netauth.select_self_us"] = st.selectSelf.us()
	m["netauth.keyex_us"] = st.keyex.us()

	m["runtime.gc_cycles_per_1k_sessions"] = float64(base.gcCycles) * 1000 / float64(max(base.completed, 1))
	m["runtime.gc_cpu_fraction"] = base.gcCPU
	if l.lat > 0 {
		m["ledger.unattributed_ratio"] = float64(l.lat-l.sum()) / float64(l.lat)
	}
	if b := base.endToEnd()["sessions_per_s"]; b > 0 {
		m["trace.overhead_ratio"] = traced.endToEnd()["sessions_per_s"] / b
	}
	return m, l, nil
}

// printLedger prints the traced auth calls' per-layer self-times next to
// the client-observed latency, and flags an unexplained share above
// unattributedBound.
func printLedger(w io.Writer, l layers, m map[string]float64) {
	if l.calls == 0 {
		fmt.Fprintln(w, "ledger: no traced auth call had all of its spans in the ring")
		return
	}
	per := func(d time.Duration) float64 { return micros(d) / float64(l.calls) }
	lat := per(l.lat)
	fmt.Fprintf(w, "ledger: %d traced auth calls (%d sessions), client-observed latency %.1f us per call\n",
		l.calls, l.sessions, lat)
	rows := []struct {
		name string
		d    time.Duration
	}{
		{"transport (client I/O wait - server active)", l.transport},
		{"netauth (server dispatch)", l.netauth},
		{"core (selection, under the registry locks)", l.core},
		{"registry (journal writes: WAL append, fsync)", l.registry},
		{"repl (quorum ack)", l.repl},
		{"silicon (device reads)", l.silicon},
		{"wire (device-side codec)", l.wire},
		{"unattributed", l.lat - l.sum()},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-44s %12.1f us %7.1f%%\n", r.name, per(r.d), 100*per(r.d)/lat)
	}
	un := m["ledger.unattributed_ratio"]
	if un > unattributedBound {
		fmt.Fprintf(w, "  FLAG: unattributed share %.3f exceeds the ledger bound %.2f\n", un, unattributedBound)
	} else {
		fmt.Fprintf(w, "  unattributed share %.3f is within the ledger bound %.2f\n", un, unattributedBound)
	}
	fmt.Fprintf(w, "  trace.overhead_ratio %.3f (traced / untraced sessions_per_s)\n", m["trace.overhead_ratio"])
}
