package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
)

// nominalN4Model enrolls one 4-PUF chip at nominal conditions only, so its
// β is the nominal one, once per test binary.
var nominalN4Model = sync.OnceValues(func() (*ChipModel, error) {
	chip := silicon.NewChip(rng.New(2).Fork("chip", 0), silicon.DefaultParams(), 4)
	cfg := DefaultEnrollConfig()
	if testing.Short() {
		cfg.ValidationSize = 5000
	}
	enr, err := EnrollChip(chip, rng.New(2).Fork("enroll", 0), cfg)
	if err != nil {
		return nil, err
	}
	return enr.Model, nil
})

// sievePair drives a kernel Selector and a refSelector from the same seed
// and demands identical results after every call.
type sievePair struct {
	t   *testing.T
	cm  *ChipModel
	sel *Selector
	ref *refSelector
}

func newSievePair(t *testing.T, cm *ChipModel, seed uint64) *sievePair {
	return &sievePair{
		t:   t,
		cm:  cm,
		sel: NewSelector(cm, rng.New(seed)),
		ref: &refSelector{model: cm, src: rng.New(seed), used: make(map[uint64]struct{})},
	}
}

// next calls Next(count, maxExamined) on both selectors and fails unless
// the issued words and bits, the error (type and fields), Examined,
// Issued and the next rng draw agree.  It returns how many challenges the
// call issued and how many candidates it examined.
func (sp *sievePair) next(count, maxExamined int) (found, examined int) {
	t := sp.t
	t.Helper()
	call := fmt.Sprintf("Next(%d, %d) after %d examined", count, maxExamined, sp.ref.examined)
	before := sp.sel.Examined()
	cs, bits, err := sp.sel.Next(count, maxExamined)
	wantCs, wantBits, wantErr := sp.ref.Next(count, maxExamined)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: err %v, reference %v", call, err, wantErr)
	}
	var ex, wantEx *ErrSelectionExhausted
	if errors.As(err, &ex) != errors.As(wantErr, &wantEx) || (ex != nil && *ex != *wantEx) {
		t.Fatalf("%s: exhaustion %+v, reference %+v", call, ex, wantEx)
	}
	if len(cs) != len(wantCs) || len(bits) != len(wantBits) || len(cs) != len(bits) {
		t.Fatalf("%s: %d challenges and %d bits, reference %d and %d", call, len(cs), len(bits), len(wantCs), len(wantBits))
	}
	for j := range cs {
		if cs[j] != wantCs[j] || bits[j] != wantBits[j] {
			t.Fatalf("%s: challenge %d is %#x/%d, reference %#x/%d", call, j, cs[j], bits[j], wantCs[j], wantBits[j])
		}
	}
	if sp.sel.Examined() != sp.ref.examined || sp.sel.Issued() != len(sp.ref.used) {
		t.Fatalf("%s: examined %d issued %d, reference %d and %d",
			call, sp.sel.Examined(), sp.sel.Issued(), sp.ref.examined, len(sp.ref.used))
	}
	a, b := *sp.sel.src, *sp.ref.src
	if got, want := a.Uint64(), b.Uint64(); got != want {
		t.Fatalf("%s: next rng draw %#x, reference %#x", call, got, want)
	}
	if ex != nil && ex.Examined != sp.sel.Examined()-before {
		t.Fatalf("%s: exhaustion reports %d examined, the call examined %d", call, ex.Examined, sp.sel.Examined()-before)
	}
	return len(cs), sp.sel.Examined() - before
}

// discard draws n candidates from both streams without examining them.
func (sp *sievePair) discard(n int) {
	for i := 0; i < n; i++ {
		sp.sel.src.Uint64()
		sp.ref.src.Uint64()
	}
}

// ahead scans at most the next limit candidates of the stream without
// consuming them and returns the 1-based positions of those the reference
// would issue (stable, not yet used, not seen earlier in the scan) and
// their words.  It stops at the first such position at or past until.
func (sp *sievePair) ahead(limit, until int) (pos []int, words []uint64) {
	src := *sp.ref.src
	mask := sp.sel.mask
	phi := make([]float64, len(sp.cm.PUFs[0].Theta))
	seen := make(map[uint64]bool)
	for i := 1; i <= limit; i++ {
		w := src.Uint64() & mask
		if _, used := sp.ref.used[w]; used || seen[w] {
			continue
		}
		if _, ok := refClassify(sp.cm, w, phi); ok {
			seen[w] = true
			pos = append(pos, i)
			words = append(words, w)
			if i >= until {
				break
			}
		}
	}
	return pos, words
}

// TestSelectorKernelBlockEdges drives the block sieve against refSelector
// where the blocks show: search caps on and beside the block size, the
// ledger's Next(m, m) form, a count completed on the last slot of a
// block, issued words pre-marked inside one block, and exhaustion.  After
// every call words, bits, errors, Examined and the rng position must
// equal the reference's.
func TestSelectorKernelBlockEdges(t *testing.T) {
	const B = sieveBlock
	type edgeCase struct {
		name  string
		model func(t *testing.T) *ChipModel
	}
	cases := []edgeCase{{"nominal-n4", func(t *testing.T) *ChipModel {
		cm, err := nominalN4Model()
		if err != nil {
			t.Fatalf("enrollment: %v", err)
		}
		return cm
	}}}
	for _, n := range []int{10, 12} {
		cases = append(cases, edgeCase{fmt.Sprintf("vt-n%d", n), func(t *testing.T) *ChipModel {
			cm, err := vtSweepModel()
			if err != nil {
				t.Fatalf("enrollment: %v", err)
			}
			return cm.Narrow(n)
		}})
	}
	for _, k := range []int{1, 5, 31, 32, 33, 64} {
		cases = append(cases, edgeCase{fmt.Sprintf("synthetic-k%d", k), func(*testing.T) *ChipModel {
			return kernelModel(uint64(k), k)
		}})
	}
	caps := []int{1, B - 1, B, B + 1, 3*B + 7}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cm := tc.model(t)
			sp := newSievePair(t, cm, 23)

			// A count completed on the last slot of the first and of the
			// third block: discard draws until the chosen stable word sits
			// at position T.
			for _, T := range []int{B, 3 * B} {
				pos, _ := sp.ahead(1<<19, T)
				i := 0
				for i < len(pos) && pos[i] < T {
					i++
				}
				if i == len(pos) {
					// Only tiny word spaces (k = 1, 5) run out this early.
					t.Logf("no issuable candidate at or past position %d: last-slot case skipped", T)
					continue
				}
				d := pos[i] - T
				count := 0
				for _, p := range pos[:i+1] {
					if p > d {
						count++
					}
				}
				sp.discard(d)
				if found, examined := sp.next(count, 0); found != count || examined != T {
					t.Fatalf("last slot %d: found %d of %d after examining %d", T, found, count, examined)
				}
			}

			// Issuable words inside the next block, pre-marked as used:
			// the sieve keeps them and the used-set walk must skip them.
			if pos, words := sp.ahead(B, B); len(pos) > 0 {
				for r := 0; r < len(words); r += 2 {
					sp.sel.MarkUsed(words[r])
					sp.ref.used[words[r]] = struct{}{}
				}
				sp.next(len(pos)/2+1, 0)
				sp.next(3, 0)
			}

			// The ledger's form examines exactly m, and a small count
			// under the same caps stops at the cap or at the count.
			for _, m := range caps {
				if _, examined := sp.next(m, m); examined != m {
					t.Fatalf("Next(%d, %d) examined %d", m, m, examined)
				}
				if found, examined := sp.next(2, m); found < 2 && examined != m {
					t.Fatalf("Next(2, %d) found %d after examining %d", m, found, examined)
				}
			}

			// Ordinary sessions.  At n = 12 V/T the default cap exhausts,
			// except under -short, whose smaller validation set leaves β
			// soft enough to pass more than one candidate in 10,000.
			for i := 0; i < 3; i++ {
				if found, _ := sp.next(16, 0); tc.name == "vt-n12" && !testing.Short() && found == 16 {
					t.Fatal("n = 12 V/T found 16 challenges within the default cap: the exhaustion path went untested")
				}
			}
		})
	}
}

// fleetN10Models enrolls four n = 10 chips across the V/T corners once
// per test binary.
var fleetN10Models = sync.OnceValues(func() ([]*ChipModel, error) {
	models := make([]*ChipModel, 4)
	for i := range models {
		chip := silicon.NewChip(rng.New(6).Fork("chip", i), silicon.DefaultParams(), 10)
		cfg := DefaultEnrollConfig()
		cfg.Conditions = silicon.Corners()
		enr, err := EnrollChip(chip, rng.New(6).Fork("enroll", i), cfg)
		if err != nil {
			return nil, err
		}
		models[i] = enr.Model
	}
	return models, nil
})

// BenchmarkSelectorNextFleet times one 16-challenge session's selection
// per op at n = 10 with V/T-hardened β, rotating over four chips as the
// secure-n10 workload's clients do, so each session finds its chip's
// tables in the cache only as far as four chips' tables fit.
func BenchmarkSelectorNextFleet(b *testing.B) {
	models, err := fleetN10Models()
	if err != nil {
		b.Fatal(err)
	}
	chips := len(models)
	sels := make([]*Selector, chips)
	for i, m := range models {
		sels[i] = NewSelector(m, rng.New(6).Fork("select", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sels[i%chips].Next(16, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	examined, tables := 0, 0
	for _, s := range sels {
		examined += s.Examined()
		tables += s.kernelBytes()
	}
	b.ReportMetric(float64(examined)/float64(b.N), "candidates/op")
	b.ReportMetric(float64(tables)/float64(chips), "kernel-bytes/chip")
}
