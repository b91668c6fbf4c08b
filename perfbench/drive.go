package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"xorpuf/internal/netauth"
	"xorpuf/internal/silicon"
	"xorpuf/internal/telemetry/dtrace"
)

// tally is what a set of closed-loop ops observed, as the client saw it.
type tally struct {
	// attempted counts operations: one per auth session (a batch of k is k
	// operations) and one per key exchange.
	attempted int
	keyexes   int // attempted key exchanges
	// completed counts approved zero-HD auth sessions plus established key
	// exchanges that carried their payload.
	completed int
	failed    int
	firstErr  error
	authLat   []time.Duration // per Authenticate / AuthenticateBatch call
	keyexLat  []time.Duration // per Establish + SendPayload + Close
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.keyexes += o.keyexes
	t.completed += o.completed
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	t.authLat = append(t.authLat, o.authLat...)
	t.keyexLat = append(t.keyexLat, o.keyexLat...)
}

// wantBurned is the number of challenge words the protocol burns for t's
// ops: challengesPerSession per auth session and keyexConfig.N() per key
// exchange — the journal audit's expected count.
func (t *tally) wantBurned() int {
	return (t.attempted-t.keyexes)*challengesPerSession + t.keyexes*keyexConfig.N()
}

func (t *tally) fail(n int, err error) {
	t.failed += n
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// client is one closed-loop device concentrator: a V2Client that rotates
// evenly through its slice of the fleet (and, on hardened workloads, each
// chip through the V/T corners), waiting for each verdict before the next
// op.
type client struct {
	d      *deployment
	c      *netauth.V2Client
	chips  []int // indexes into the deployment's ids and devices
	visits []int // ops run so far on each of chips
	k      int   // ops issued so far; drives the chip rotation
	t      tally
	// probe is the traced phase's instrumentation; nil when untraced.
	probe *probe
	// marks are the phase's op completion times and completed counts.
	marks []mark
}

type mark struct {
	at  time.Time
	n   int           // ops the call completed
	lat time.Duration // latency of a successful auth call; 0 otherwise
}

var corners = silicon.Corners()

func (cl *client) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil || cl.probe == nil {
		return conn, err
	}
	return &countingConn{Conn: conn, s: &cl.probe.conn}, nil
}

// op runs the client's next operation.
func (cl *client) op(ctx context.Context, traced bool) {
	wl := cl.d.wl
	s := cl.k % len(cl.chips)
	cl.k++
	v := cl.visits[s]
	cl.visits[s]++
	j := cl.chips[s]
	c := cl.c
	c.ChipID = cl.d.ids[j]
	c.Device = cl.d.devices[j]
	c.Cond = silicon.Nominal
	if wl.hardened {
		c.Cond = corners[v%len(corners)]
	}
	var before probeSnap
	c.Trace = ""
	if traced {
		c.Device = &timedDevice{dev: c.Device, p: cl.probe}
		c.Trace = dtrace.Context{Trace: dtrace.NewTraceID(), Span: dtrace.NewSpanID()}.String()
		before = cl.probe.snap()
	}
	// Each chip runs a key exchange on every keyexEvery-th of its visits,
	// staggered by slot so the exchanges spread over the client's chips.
	isKeyex := wl.keyexEvery > 0 && (v+s)%wl.keyexEvery == wl.keyexEvery-1
	start := time.Now()
	if isKeyex {
		cl.keyex(ctx)
	} else {
		cl.auth(ctx)
	}
	if traced {
		cl.probe.record(c.Trace, isKeyex, wl.batch, time.Since(start), before)
	}
}

func (cl *client) auth(ctx context.Context) {
	n := cl.d.wl.batch
	cl.t.attempted += n
	start := time.Now()
	var res []netauth.Result
	var err error
	if n == 1 {
		var r netauth.Result
		r, err = cl.c.Authenticate(ctx)
		res = []netauth.Result{r}
	} else {
		res, err = cl.c.AuthenticateBatch(ctx, n)
	}
	lat := time.Since(start)
	if err != nil {
		cl.t.fail(n, fmt.Errorf("%s: %w", cl.c.ChipID, err))
		return
	}
	cl.t.authLat = append(cl.t.authLat, lat)
	for _, r := range res {
		// The paper's approval rule: zero Hamming distance on every one of
		// the session's challenges.  Anything else is a failed op.
		if r.Approved && r.Mismatches == 0 && r.Challenges == challengesPerSession {
			cl.t.completed++
		} else {
			cl.t.fail(1, fmt.Errorf("%s: approved=%v mismatches=%d challenges=%d",
				cl.c.ChipID, r.Approved, r.Mismatches, r.Challenges))
		}
	}
}

var payload = func() []byte {
	b := make([]byte, payloadBytes)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}()

func (cl *client) keyex(ctx context.Context) {
	cl.t.attempted++
	cl.t.keyexes++
	// At most one open connection per client: the persistent auth
	// connection yields to the key exchange's dedicated one.
	cl.c.Close()
	start := time.Now()
	ss, err := cl.c.Establish(ctx)
	if err != nil {
		cl.t.fail(1, fmt.Errorf("%s: establish: %w", cl.c.ChipID, err))
		return
	}
	err = ss.SendPayload(payload)
	if cerr := ss.Close(); err == nil {
		err = cerr
	}
	lat := time.Since(start)
	if err != nil {
		cl.t.fail(1, fmt.Errorf("%s: keyex payload: %w", cl.c.ChipID, err))
		return
	}
	cl.t.completed++
	cl.t.keyexLat = append(cl.t.keyexLat, lat)
}

// phaseResult is one measured phase: the merged client tally plus the
// process-wide resource deltas over it.
type phaseResult struct {
	tally
	elapsed  time.Duration
	cpu      time.Duration // user+sys of the whole process
	mallocs  uint64
	gcCycles uint32
	gcCPU    float64 // share of the process's CPU time spent in GC
	heap     uint64  // HeapInuse after a GC at the end of the phase
	// heapGrowth is the change in live heap bytes over the phase, each end
	// measured after a GC: the state the phase's sessions left behind,
	// mostly the used-challenge sets.
	heapGrowth int64
	windows    []window
}

// windowLen is the length of the phase's measurement windows; shorter
// phases use a tenth of their length.
const windowLen = time.Second

// window is one measurement window of a phase.
type window struct {
	rate     float64       // completed ops per second
	p90, p99 time.Duration // percentiles of the auth calls that ended in it
}

// windowStats splits [start, start+dur) into windows.  Throughput and tail
// latency are reported as medians over windows, so a stall confined to one
// window (a GC, a burst from another process on the host) moves neither.
func windowStats(clients []*client, start time.Time, dur time.Duration) []window {
	w := min(windowLen, dur/10)
	counts := make([]int, int(dur/w))
	lats := make([][]time.Duration, len(counts))
	for _, cl := range clients {
		for _, m := range cl.marks {
			if k := int(m.at.Sub(start) / w); k < len(counts) {
				counts[k] += m.n
				if m.lat > 0 {
					lats[k] = append(lats[k], m.lat)
				}
			}
		}
	}
	ws := make([]window, len(counts))
	for k, c := range counts {
		ws[k] = window{rate: float64(c) / w.Seconds(), p90: quantile(lats[k], 0.90), p99: quantile(lats[k], 0.99)}
	}
	return ws
}

// runPhase runs every client's closed loop for dur and merges what they saw.
func (d *deployment) runPhase(dur time.Duration, traced bool) phaseResult {
	ctx := context.Background()
	for _, cl := range d.clients {
		cl.t = tally{}
		cl.marks = cl.marks[:0]
		if traced {
			cl.probe = &probe{}
		} else {
			cl.probe = nil
		}
		// Redial, so a traced phase counts its own connection's bytes and an
		// untraced phase runs on a bare connection.
		cl.c.Close()
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	live0 := ms0.HeapAlloc
	gc0 := readGCCPU()
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, cl := range d.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n, a := cl.t.completed, len(cl.t.authLat)
				cl.op(ctx, traced)
				m := mark{at: time.Now(), n: cl.t.completed - n}
				if len(cl.t.authLat) > a {
					m.lat = cl.t.authLat[a]
				}
				cl.marks = append(cl.marks, m)
			}
		}(cl)
	}
	wg.Wait()
	pr := phaseResult{elapsed: time.Since(start), cpu: processCPU() - cpu0}
	runtime.ReadMemStats(&ms1)
	pr.gcCPU = readGCCPU().since(gc0)
	pr.mallocs = ms1.Mallocs - ms0.Mallocs
	pr.gcCycles = ms1.NumGC - ms0.NumGC
	for _, cl := range d.clients {
		pr.add(&cl.t)
	}
	pr.windows = windowStats(d.clients, start, dur)
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	pr.heap = ms1.HeapInuse
	pr.heapGrowth = int64(ms1.HeapAlloc) - int64(live0)
	return pr
}

// endToEnd derives the user-visible metrics of a phase.
func (pr *phaseResult) endToEnd() map[string]float64 {
	var rates, p90s, p99s []float64
	for _, w := range pr.windows {
		rates = append(rates, w.rate)
		if w.p99 > 0 {
			p90s = append(p90s, micros(w.p90))
			p99s = append(p99s, micros(w.p99))
		}
	}
	done := float64(pr.completed)
	if done == 0 {
		done = 1 // keeps per-op ratios finite on a fully failed phase
	}
	m := map[string]float64{
		"sessions_per_s":         median(rates),
		"auth_p50_us":            micros(quantile(pr.authLat, 0.50)),
		"auth_p90_us":            median(p90s),
		"auth_p99_us":            median(p99s),
		"fail_ratio":             float64(pr.failed) / float64(max(pr.attempted, 1)),
		"cpu_us_per_session":     micros(pr.cpu) / done,
		"allocs_per_session":     float64(pr.mallocs) / done,
		"heap_inuse_mib":         float64(pr.heap) / (1 << 20),
		"heap_bytes_per_session": float64(pr.heapGrowth) / done,
	}
	if len(pr.keyexLat) > 0 {
		m["keyex_p50_us"] = micros(quantile(pr.keyexLat, 0.50))
		m["keyex_p99_us"] = micros(quantile(pr.keyexLat, 0.99))
	}
	return m
}

// median is the middle value of xs (the mean of the middle two).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of ds (0 for none).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
