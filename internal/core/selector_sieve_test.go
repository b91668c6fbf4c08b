package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"xorpuf/internal/linalg"
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

// TestSelectorFirstPassExtremes drives the first group's pass where its
// compaction is at its extremes, at k = 32 and k = 64: every lane of group
// 0 surely stable (all of a block's candidates survive the pass), every
// lane surely unstable (none survive), and every lane in the band (all
// survive, each settled exactly).  Each model runs with group 0 alone and
// with an ordinary fourth member behind it.  A block's classification
// must match refClassify slot by slot, and Next under search caps of 1,
// 127, 128 and 129 must match refSelector call by call.
func TestSelectorFirstPassExtremes(t *testing.T) {
	const B = sieveBlock
	for _, k := range []int{32, 64} {
		base := kernelModel(uint64(k), k).PUFs
		// scaled gives member i thresholds lo·Σ|θ| and hi·Σ|θ|, beyond
		// every prediction when |lo|, |hi| > 1.
		scaled := func(i int, lo, hi float64) *PUFModel {
			var mass float64
			for _, th := range base[i].Theta {
				mass += math.Abs(th)
			}
			return &PUFModel{Theta: base[i].Theta, Thr0: lo * mass, Thr1: hi * mass}
		}
		// tiny gives member i a mass below minCertifiedMass, so its lane
		// is in the band on every candidate, and thresholds at its bias,
		// which the exact path finds stable almost always.
		tiny := func(i int) *PUFModel {
			theta := append([]float64(nil), base[i].Theta...)
			linalg.Scale(0x1p-1000, theta)
			return &PUFModel{Theta: theta, Thr0: theta[k], Thr1: theta[k]}
		}
		groups := []struct {
			name    string
			members []*PUFModel
			survive int // of a full block, after the pass
		}{
			{"stable", []*PUFModel{scaled(0, 8, 8), scaled(1, -9, -8), scaled(2, 8, 8)}, B},
			{"unstable", []*PUFModel{scaled(0, -8, 8), scaled(1, -8, 8), scaled(2, -8, 8)}, 0},
			{"band", []*PUFModel{tiny(0), tiny(1), tiny(2)}, B},
		}
		for _, gc := range groups {
			for _, tail := range []bool{false, true} {
				cm := &ChipModel{PUFs: gc.members, Beta0: 1, Beta1: 1}
				name := fmt.Sprintf("k%d-%s-n3", k, gc.name)
				if tail {
					cm.PUFs = append(cm.PUFs[:groupSize:groupSize], kernelModel(uint64(k)+1, k).PUFs[0])
					name = fmt.Sprintf("k%d-%s-n4", k, gc.name)
				}
				t.Run(name, func(t *testing.T) {
					sel := NewSelector(cm, rng.New(3))
					src := rng.New(4)
					var words, p [B]uint64
					var idx, bit [B]uint8
					for j := range words {
						words[j] = src.Uint64() & sel.mask
						p[j] = suffixParity(words[j])
					}
					if n := sel.groups[0].first(p[:], idx[:], bit[:]); n != gc.survive {
						t.Fatalf("%d of %d candidates survive the first pass, want %d", n, B, gc.survive)
					}
					n := sel.sieve(p[:], idx[:], bit[:])
					phi := make([]float64, k+1)
					next := 0
					for j, w := range words {
						wantBit, wantOK := refClassify(cm, w, phi)
						ok := next < n && int(idx[next]) == j
						if ok {
							next++
						}
						if ok != wantOK || (ok && bit[j] != wantBit) {
							t.Fatalf("slot %d word %#x: kernel (%d, %v), reference (%d, %v)", j, w, bit[j], ok, wantBit, wantOK)
						}
					}
					if gc.survive == B && !tail && n < B-1 {
						t.Errorf("%d of %d candidates stable, want nearly all", n, B)
					}

					sp := newSievePair(t, cm, 5)
					for _, m := range []int{1, B - 1, B, B + 1} {
						for _, count := range []int{1, m - 1, m, m + 1} {
							sp.next(count, m)
						}
					}
				})
			}
		}
	}
}

// FuzzSelectorNext decodes a model from the input, 1–64 stages and 1–7
// members with θ from fuzzValue and per member thresholds either fuzzed
// values (often beyond every prediction, so the member is stable on every
// candidate or on none) or within Σ|θ|/8 of zero (stable on most), then
// makes up to four Next calls against refSelector: fuzzed counts under
// fuzzed search caps (the default cap only for counts up to 2), an
// optional budget, and upcoming draws pre-marked as issued.  After every
// call the words, bits, errors, Examined and the next rng draw must
// agree.
func FuzzSelectorNext(f *testing.F) {
	seeds := rng.New(5).Split("fuzz-next-seeds")
	for _, shape := range [][2]byte{{31, 2}, {63, 6}, {0, 0}, {9, 3}, {32, 4}, {40, 5}} {
		in := []byte{shape[0], shape[1]}
		for i := 0; i < 1200; i++ {
			in = append(in, byte(seeds.Uint64()))
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		k := 1 + int(r.byte()%MaxStages)
		n := 1 + int(r.byte()%7)
		cm := &ChipModel{Beta0: 1, Beta1: 1}
		if r.byte()%2 == 1 {
			cm.Beta0, cm.Beta1 = 0.75, 1.25
		}
		for i := 0; i < n; i++ {
			// One member in eight draws θ from every fuzzValue class; the
			// rest from six neighbouring binades, so that Σ|θ| is finite
			// and the thresholds below split the candidates.
			wild := r.byte()%8 == 0
			theta := make([]float64, k+1)
			var mass float64
			for j := range theta {
				e := r.byte()
				if !wild {
					e = 28 + e%6
				}
				theta[j] = fuzzValue(e, r.byte())
				mass += math.Abs(theta[j])
			}
			m := &PUFModel{Theta: theta}
			if r.byte()%4 == 0 {
				m.Thr0, m.Thr1 = fuzzValue(r.byte(), r.byte()), fuzzValue(r.byte(), r.byte())
			} else {
				m.Thr0 = -mass * float64(r.byte()) / 2048
				m.Thr1 = mass * float64(r.byte()) / 2048
			}
			cm.PUFs = append(cm.PUFs, m)
		}
		sp := newSievePair(t, cm, r.u64())
		for call := 0; call < 4 && len(r) > 0; call++ {
			count := int(r.byte() % 24)
			maxExamined := int(r.byte()) * 3
			if maxExamined == 0 {
				count %= 3
			}
			budget := 0
			if b := r.byte(); b%4 == 0 {
				budget = sp.sel.Issued() + int(b>>2)%24
			}
			sp.sel.SetBudget(budget)
			sp.ref.budget = budget
			ahead := *sp.ref.src
			for marks := r.byte(); marks != 0; marks >>= 1 {
				w := ahead.Uint64() & sp.sel.mask
				if marks&1 == 1 {
					sp.sel.MarkUsed(w)
					sp.ref.used[w] = struct{}{}
				}
			}
			sp.next(count, maxExamined)
		}
	})
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
// per op with V/T-hardened β and reports the cost per examined candidate.
// n10 rotates over four n = 10 chips as the secure-n10 workload's clients
// do, so each session finds its chip's tables in the cache only as far as
// four chips' tables fit.  n12 runs the n = 12 V/T test chip, whose
// sessions mostly exhaust the default cap of 160,000 candidates.
func BenchmarkSelectorNextFleet(b *testing.B) {
	b.Run("n10", func(b *testing.B) {
		models, err := fleetN10Models()
		if err != nil {
			b.Fatal(err)
		}
		benchmarkSelectorNext(b, models, false)
	})
	b.Run("n12", func(b *testing.B) {
		cm, err := vtSweepModel()
		if err != nil {
			b.Fatal(err)
		}
		benchmarkSelectorNext(b, []*ChipModel{cm.Narrow(12)}, true)
	})
}

// benchmarkSelectorNext makes one Next(16, 0) per op, rotating over a
// selector per model.  Any error stops it, except an exhausted search
// where allowExhausted says that is a session like any other.
func benchmarkSelectorNext(b *testing.B, models []*ChipModel, allowExhausted bool) {
	chips := len(models)
	sels := make([]*Selector, chips)
	for i, m := range models {
		sels[i] = NewSelector(m, rng.New(6).Fork("select", i))
	}
	var exhausted *ErrSelectionExhausted
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sels[i%chips].Next(16, 0); err != nil && !(allowExhausted && errors.As(err, &exhausted)) {
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
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(examined), "ns/candidate")
	b.ReportMetric(float64(tables)/float64(chips), "kernel-bytes/chip")
}
