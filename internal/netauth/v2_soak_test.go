package netauth

// Pipelining soak: many concurrent V2 clients multiplex batches over a
// registry-backed server, the server is force-killed mid-traffic, the
// registry is reopened from its WAL, and traffic resumes against a fresh
// server instance.  Invariants: no goroutine leaks across the kill, and
// zero challenge reuse — not within a batch, not across retries, and not
// across the restart (the WAL-replayed issuance counter must continue,
// never rewind).  Run under -race; the challenge log is exactly the kind
// of cross-goroutine aggregation the detector audits.

import (
	"context"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xorpuf/internal/challenge"
	"xorpuf/internal/core"
	"xorpuf/internal/registry"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
)

// challengeLog aggregates every challenge any worker's device was asked,
// flagging repeats.  Challenge.String() copies, so recording is safe even
// though the client reuses its challenge scratch buffer between frames.
type challengeLog struct {
	mu   sync.Mutex
	seen map[string]int
	dups []string
	n    int
}

func newChallengeLog() *challengeLog {
	return &challengeLog{seen: make(map[string]int)}
}

func (l *challengeLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

func (l *challengeLog) duplicates() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.dups...)
}

// loggedDevice interposes the challenge log in front of a real device.
type loggedDevice struct {
	log *challengeLog
	d   core.Device
}

func (d loggedDevice) ReadXOR(c challenge.Challenge, cond silicon.Condition) uint8 {
	s := c.String()
	d.log.mu.Lock()
	d.log.n++
	d.log.seen[s]++
	if d.log.seen[s] == 2 {
		d.log.dups = append(d.log.dups, s)
	}
	d.log.mu.Unlock()
	return d.d.ReadXOR(c, cond)
}

func TestV2PipeliningSoakKillRestart(t *testing.T) {
	const (
		workers          = 6
		batch            = 4
		batchesPerWorker = 6
		numChallenges    = 16
	)
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()
	model := benchChipModel(7, 4, 64)
	log := newChallengeLog()

	reg, err := registry.Open(dir, registry.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("chip-A", model, 0); err != nil {
		t.Fatal(err)
	}
	srv := NewServerWithRegistry(numChallenges, 7, reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck

	// runTraffic drives `workers` concurrent clients, each multiplexing
	// `batchesPerWorker` batches over one persistent connection.  If kill
	// is armed, errors after the kill flag flips are expected; any other
	// failure is a real one.
	runTraffic := func(addr string, seedBase uint64, killed *atomic.Bool) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := &V2Client{
					Addr: addr, ChipID: "chip-A",
					Device:  loggedDevice{log: log, d: modelAnswerDevice{m: model}},
					Cond:    silicon.Nominal,
					Timeout: 2 * time.Second,
					Policy: RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond,
						MaxDelay: 50 * time.Millisecond, Multiplier: 2, Jitter: 0.3},
					Jitter: rng.New(seedBase + uint64(w)),
				}
				defer c.Close()
				for i := 0; i < batchesPerWorker; i++ {
					res, err := c.AuthenticateBatch(context.Background(), batch)
					if err != nil {
						if killed != nil && killed.Load() {
							return // mid-stream kill: expected
						}
						t.Errorf("worker %d batch %d: %v", w, i, err)
						return
					}
					for j, r := range res {
						if !r.Approved {
							t.Errorf("worker %d batch %d stream %d denied (%d mismatches)",
								w, i, j, r.Mismatches)
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}

	// Phase 1: kill the server once traffic is genuinely in flight.
	var killed atomic.Bool
	go func() {
		// Wait until at least one full batch of challenges has been
		// answered, then force-close mid-traffic.
		for log.count() < workers*batch*numChallenges {
			time.Sleep(time.Millisecond)
		}
		killed.Store(true)
		srv.Close()
	}()
	runTraffic(ln.Addr().String(), 9000, &killed)
	if !killed.Load() {
		// All workers finished before the killer fired; make the restart
		// half of the test still meaningful by closing now.
		killed.Store(true)
		srv.Close()
	}
	phase1 := log.count()
	if phase1 == 0 {
		t.Fatal("phase 1 issued no challenges")
	}

	// The kill must not strand session goroutines.
	waitGoroutines(t, baseline+1) // +1: the killer goroutine may still be draining

	// Phase 2: reopen the registry from the same directory — WAL replay
	// restores the issuance counter — and serve again.
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	reg2, err := registry.Open(dir, registry.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	srv2 := NewServerWithRegistry(numChallenges, 7, reg2)
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(ln2) //nolint:errcheck
	runTraffic(ln2.Addr().String(), 9500, nil)
	if log.count() <= phase1 {
		t.Fatal("phase 2 issued no challenges after the restart")
	}

	// The whole point: nothing was ever asked twice.
	if dups := log.duplicates(); len(dups) > 0 {
		t.Fatalf("%d challenges reused across kill/restart (first: %q) — "+
			"issuance counter rewound", len(dups), dups[0])
	}

	srv2.Close()
	waitGoroutines(t, baseline)
}
