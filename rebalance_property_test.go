package xorpuf_test

// Rebalance property test: the never-reuse and no-lost-burn invariants under
// adversarial interleaving at fleet scale.  A ~1000-chip registry serves
// issuance from four concurrent workers while contiguous 100-chip ranges
// migrate to a second registry over a link that kills every third migration
// connection after a small random byte budget — forcing mid-snapshot and
// mid-delta restarts exactly where a target crash would land.
//
// The two claims, checked against the full interleaved history:
//
//   - never-reuse: no (chip, challenge-word) pair is ever issued twice,
//     whether both issuances came from the source, both from the target, or
//     one from each side of a cutover;
//   - no lost burn: because both registries draw the same deterministic
//     selector streams (same registry seed), a burn record lost in transit
//     would make the target re-issue that exact word — so post-migration
//     issuance on the target re-checks the same duplicate detector.
//
// Chip IDs are zero-padded so lexicographic range bounds match numeric
// waves.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xorpuf/internal/core"
	"xorpuf/internal/registry"
	"xorpuf/internal/registry/rebalance"
)

const (
	propChips    = 1000
	propWaveSize = 100
	propWaves    = 4
	propWorkers  = 4
	propRegSeed  = 77
)

func propChipID(i int) string { return fmt.Sprintf("chip-%04d", i) }

// propModel is the registry tests' cheap deterministic model: every
// challenge predicted Stable0, so selection never stalls and enrollment
// costs nothing at 1000-chip scale.
func propModel(i int) *core.ChipModel {
	m := &core.ChipModel{PUFs: make([]*core.PUFModel, 2), Beta0: 1, Beta1: 1}
	for p := range m.PUFs {
		pm := &core.PUFModel{Theta: make([]float64, 17), Thr0: 0.4, Thr1: 0.6}
		for j := range pm.Theta {
			pm.Theta[j] = float64((i+1)*(p+2)*(j+1)) * 1e-7
		}
		m.PUFs[p] = pm
	}
	return m
}

// killingListener passes connections through, but dooms every third one to
// die after a small deterministic byte budget — a target crash mid-stream,
// at a different protocol offset each time.
type killingListener struct {
	net.Listener
	mu    sync.Mutex
	rng   *rand.Rand
	count int
	kills atomic.Int64
}

func (l *killingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.count++
	doomed := l.count%2 == 0
	budget := int64(200 + l.rng.Intn(4000))
	l.mu.Unlock()
	if !doomed {
		return conn, nil
	}
	l.kills.Add(1)
	return &killConn{Conn: conn, budget: budget}, nil
}

type killConn struct {
	net.Conn
	budget int64 // remaining bytes across reads and writes
}

var errKilled = errors.New("connection killed by test harness")

func (c *killConn) spend(n int) bool {
	return atomic.AddInt64(&c.budget, -int64(n)) <= 0
}

func (c *killConn) Read(p []byte) (int, error) {
	if atomic.LoadInt64(&c.budget) <= 0 {
		c.Conn.Close()
		return 0, errKilled
	}
	n, err := c.Conn.Read(p)
	if c.spend(n) {
		c.Conn.Close()
	}
	return n, err
}

func (c *killConn) Write(p []byte) (int, error) {
	if atomic.LoadInt64(&c.budget) <= 0 {
		c.Conn.Close()
		return 0, errKilled
	}
	n, err := c.Conn.Write(p)
	if c.spend(n) {
		c.Conn.Close()
	}
	return n, err
}

func TestRebalancePropertyNeverReuseNoLostBurn(t *testing.T) {
	if testing.Short() {
		t.Skip("rebalance property test skipped in -short mode")
	}
	src, err := registry.Open("", registry.Options{Seed: propRegSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := registry.Open("", registry.Options{Seed: propRegSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	for i := 0; i < propChips; i++ {
		if err := src.Register(propChipID(i), propModel(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Pre-burn history on part of the fleet so snapshots carry non-trivial
	// Used-sets the target must honor.
	preBurned := make([][]uint64, propChips)
	for i := 0; i < propChips; i += 5 {
		cs, _, err := src.Lookup(propChipID(i)).Issue(3, 0)
		if err != nil {
			t.Fatal(err)
		}
		preBurned[i] = cs
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	kl := &killingListener{Listener: ln, rng: rand.New(rand.NewSource(7))}
	acc := rebalance.NewAcceptor(dst, kl, rebalance.AcceptorConfig{
		SessionTimeout: 5 * time.Second,
	})
	defer acc.Close()

	// The duplicate detector: every issued (chip, word) pair across both
	// registries and the whole interleaving, first-come-claimed.
	var issuedMu sync.Mutex
	issued := make([]map[uint64]bool, propChips)
	for i := range issued {
		issued[i] = make(map[uint64]bool)
	}
	duplicates := 0
	record := func(i int, cs []uint64) {
		issuedMu.Lock()
		for _, c := range cs {
			if issued[i][c] {
				duplicates++
				t.Errorf("chip %s: challenge %#x issued twice", propChipID(i), c)
				continue
			}
			issued[i][c] = true
		}
		issuedMu.Unlock()
	}

	// issueOn issues a batch on whichever registry currently owns the chip.
	// Fenced/arriving windows and mid-flight ownership races are retryable
	// states, not errors — exactly what a verifier would see.
	issueOn := func(i int) {
		id := propChipID(i)
		reg := src
		if st, _ := src.Ownership(id); st == registry.OwnershipDeparted {
			reg = dst
		}
		e := reg.Lookup(id)
		if e == nil {
			return // arriving on dst, or just departed src: retry later
		}
		cs, _, err := e.Issue(2, 0)
		if err != nil {
			if errors.Is(err, registry.ErrMigrating) {
				return
			}
			// Lookup raced the cutover: the entry we held went away.
			return
		}
		record(i, cs)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sessions atomic.Int64
	for w := 0; w < propWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(1000 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				issueOn(rnd.Intn(propChips))
				sessions.Add(1)
				// Throttle below the delta-shipping rate: an issuance
				// firehose that outruns the migration link forever would
				// rightly never be declared caught-up.
				time.Sleep(200 * time.Microsecond)
			}
		}(w)
	}

	// Record the pre-burns now that the detector exists: they are part of
	// the history the target must never re-issue.
	for i, cs := range preBurned {
		if cs != nil {
			record(i, cs)
		}
	}

	// Migration waves run against live issuance.  Wait drives each wave to
	// completion through however many killed connections it takes.
	totalRestarts := 0
	for w := 0; w < propWaves; w++ {
		time.Sleep(50 * time.Millisecond) // let live burns land in-range first
		s, err := rebalance.StartSource(src, rebalance.SourceConfig{
			MigrationID:  fmt.Sprintf("wave-%d", w),
			Lo:           propChipID(w * propWaveSize),
			Hi:           propChipID((w + 1) * propWaveSize),
			TargetAddr:   ln.Addr().String(),
			Redirect:     "target:0",
			AckTimeout:   3 * time.Second,
			RetryBackoff: 10 * time.Millisecond,
			QueueSize:    4096,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Wait(); err != nil {
			t.Fatalf("wave %d: %v (status %+v)", w, err, s.Status())
		}
		st := s.Status()
		if st.Chips != propWaveSize {
			t.Fatalf("wave %d migrated %d chips, want %d", w, st.Chips, propWaveSize)
		}
		totalRestarts += st.Restarts
	}
	close(stop)
	wg.Wait()

	if kl.kills.Load() == 0 {
		t.Fatal("the killing listener never fired — the chaos this test exists for did not happen")
	}
	if totalRestarts == 0 {
		t.Fatal("no migration attempt was ever restarted — killed connections were not exercised")
	}

	// No lost burn: the target's selector streams are the source's, so any
	// burn dropped in transit would be re-issued here and trip the detector.
	migrated := propWaves * propWaveSize
	for i := 0; i < migrated; i++ {
		id := propChipID(i)
		if st, _ := src.Ownership(id); st != registry.OwnershipDeparted {
			t.Fatalf("%s not departed from source after its wave finished", id)
		}
		if src.Lookup(id) != nil {
			t.Fatalf("%s still resident on source after migration", id)
		}
		e := dst.Lookup(id)
		if e == nil {
			t.Fatalf("%s missing from target after migration", id)
		}
		cs, _, err := e.Issue(2, 0)
		if err != nil {
			t.Fatalf("post-migration issue on %s: %v", id, err)
		}
		record(i, cs)
	}
	// Unmigrated chips never moved and still issue from the source.
	for i := migrated; i < propChips; i += 97 {
		if st, _ := src.Ownership(propChipID(i)); st != registry.OwnershipOwned {
			t.Fatalf("%s ownership disturbed by other waves", propChipID(i))
		}
	}

	issuedMu.Lock()
	total := 0
	for _, m := range issued {
		total += len(m)
	}
	issuedMu.Unlock()
	if duplicates > 0 {
		t.Fatalf("%d duplicate issuances across %d total", duplicates, total)
	}
	if total < migrated*2 {
		t.Fatalf("only %d distinct challenges issued — traffic never ran", total)
	}
	t.Logf("property held: %d distinct challenges, %d sessions, %d killed conns, %d restarts, 0 duplicates",
		total, sessions.Load(), kl.kills.Load(), totalRestarts)
}
