package core

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"xorpuf/internal/rng"
)

// allStableModel predicts every challenge Stable0 by a wide margin (θ is 0
// but for a bias of −1, both thresholds 0), so Next issues the rng stream's
// words in draw order and only the used set decides which ones it skips.
func allStableModel(stages int) *ChipModel {
	theta := make([]float64, stages+1)
	theta[stages] = -1
	return &ChipModel{Beta0: 1, Beta1: 1, PUFs: []*PUFModel{{Theta: theta}}}
}

// wordSetPhiInv is the inverse of wordSetPhi modulo 2⁶⁴, by Newton's
// iteration (each step doubles the correct low bits).
var wordSetPhiInv = func() uint64 {
	x := uint64(wordSetPhi)
	for i := 0; i < 6; i++ {
		x *= 2 - wordSetPhi*x
	}
	return x
}()

// sharedHome returns a word whose w·φ has the top 20 bits top and low bits
// from r: all such words share a home slot in every table of up to 2²⁰
// slots.
func sharedHome(top uint32, r uint64) uint64 {
	return (uint64(top&0xFFFFF)<<44 | r>>20) * wordSetPhiInv
}

// usedSetPair drives a Selector and the map-backed refSelector through the
// same operations; after each one, Issued, Remaining and ExportState must
// equal what the map says.
type usedSetPair struct {
	t    *testing.T
	sel  *Selector
	ref  *refSelector
	seen []uint64 // every word either side has been given or has issued
}

func newUsedSetPair(t *testing.T, stages int, seed uint64) *usedSetPair {
	cm := allStableModel(stages)
	return &usedSetPair{
		t:   t,
		sel: NewSelector(cm, rng.New(seed)),
		ref: &refSelector{model: cm, src: rng.New(seed), used: make(map[uint64]struct{})},
	}
}

func (p *usedSetPair) next(count, maxExamined int) {
	p.t.Helper()
	op := fmt.Sprintf("Next(%d, %d)", count, maxExamined)
	words, bits, err := p.sel.Next(count, maxExamined)
	want, wantBits, wantErr := p.ref.Next(count, maxExamined)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(words, want) ||
		!slices.Equal(bits, wantBits) || p.sel.Examined() != p.ref.examined {
		p.t.Fatalf("%s: words %#x err %v examined %d, map reference %#x err %v examined %d",
			op, words, err, p.sel.Examined(), want, wantErr, p.ref.examined)
	}
	p.seen = append(p.seen, words...)
	p.check(op)
}

func (p *usedSetPair) mark(words []uint64) {
	p.t.Helper()
	p.sel.MarkUsed(words...)
	for _, w := range words {
		p.ref.used[w] = struct{}{}
	}
	p.seen = append(p.seen, words...)
	p.check(fmt.Sprintf("MarkUsed(%d words)", len(words)))
}

func (p *usedSetPair) load(st SelectorState) {
	p.t.Helper()
	p.sel.ImportState(st)
	p.ref.used = make(map[uint64]struct{}, len(st.Used))
	for _, w := range st.Used {
		p.ref.used[w] = struct{}{}
	}
	p.ref.budget = max(st.Budget, 0)
	p.seen = append(p.seen, st.Used...)
	p.check(fmt.Sprintf("ImportState(%d words, budget %d)", len(st.Used), st.Budget))
}

func (p *usedSetPair) setBudget(n int) {
	p.t.Helper()
	p.sel.SetBudget(n)
	p.ref.budget = n
	p.check(fmt.Sprintf("SetBudget(%d)", n))
}

func (p *usedSetPair) check(op string) {
	p.t.Helper()
	want := make([]uint64, 0, len(p.ref.used))
	for w := range p.ref.used {
		want = append(want, w)
	}
	slices.Sort(want)
	wantRem := -1
	if p.ref.budget > 0 {
		wantRem = max(p.ref.budget-len(want), 0)
	}
	if got := p.sel.Issued(); got != len(want) {
		p.t.Fatalf("after %s: Issued %d, map holds %d", op, got, len(want))
	}
	if got := p.sel.Remaining(); got != wantRem {
		p.t.Fatalf("after %s: Remaining %d, want %d", op, got, wantRem)
	}
	st := p.sel.ExportState()
	if !slices.Equal(st.Used, want) || st.Budget != p.ref.budget {
		p.t.Fatalf("after %s: ExportState %d words budget %d, map %d words budget %d",
			op, len(st.Used), st.Budget, len(want), p.ref.budget)
	}
}

// pick draws a word of the kind the used set must handle: a random
// challenge word, word 0, the all-ones word of k stages (^uint64(0) at
// k = 64), a word already given, or one that shares a crowded home slot.
func (p *usedSetPair) pick(drive *rng.Source) uint64 {
	switch drive.Intn(6) {
	case 0:
		return 0
	case 1:
		return p.sel.mask
	case 2:
		if len(p.seen) > 0 {
			return p.seen[drive.Intn(len(p.seen))]
		}
	case 3:
		return sharedHome(0x9E377, drive.Uint64())
	}
	return drive.Uint64() & p.sel.mask
}

// TestSelectorUsedSetMatchesMap runs seeded random sequences of Next,
// MarkUsed, ImportState (duplicate and unsorted input), SetBudget and
// ExportState on the table-backed Selector and on a map-backed model of
// the never-reuse rule, at widths from 1 stage (two words, one of them 0)
// to 64.
func TestSelectorUsedSetMatchesMap(t *testing.T) {
	seeds, steps := 12, 80
	if testing.Short() {
		seeds = 4
	}
	for _, k := range []int{1, 4, 11, 32, 64} {
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			t.Run(fmt.Sprintf("k%d/seed%d", k, seed), func(t *testing.T) {
				p := newUsedSetPair(t, k, seed)
				drive := rng.New(seed).Split(fmt.Sprintf("used-set-ops-%d", k))
				for step := 0; step < steps; step++ {
					switch drive.Intn(5) {
					case 0, 1:
						p.next(drive.Intn(24), 1+drive.Intn(200))
					case 2:
						n := drive.Intn(40)
						if drive.Intn(8) == 0 {
							n = 200 + drive.Intn(800) // crosses several doublings at once
						}
						words := make([]uint64, n)
						for i := range words {
							words[i] = p.pick(drive)
						}
						p.mark(words)
					case 3:
						st := p.sel.ExportState()
						used := st.Used[:drive.Intn(len(st.Used)+1)]
						for i := drive.Intn(30); i > 0; i-- {
							used = append(used, p.pick(drive))
						}
						used = append(used, used[:len(used)/3]...)
						drive.Shuffle(len(used), func(i, j int) { used[i], used[j] = used[j], used[i] })
						p.load(SelectorState{Used: used, Budget: drive.Intn(len(used)+40) - 5})
					case 4:
						if drive.Intn(3) == 0 {
							p.setBudget(0)
						} else {
							p.setBudget(p.sel.Issued() + drive.Intn(40))
						}
					}
				}
			})
		}
	}
}

// TestWordSetGrowthBoundaries adds words one at a time and checks, at
// every size, that the table is the smallest power of two from 16 slots
// up that holds the words at or under ¾ load; on each side of every
// doubling it checks the set against the map and probes for every word
// added so far.
func TestWordSetGrowthBoundaries(t *testing.T) {
	const maxSlots = 1 << 13
	p := newUsedSetPair(t, 64, 1)
	drive := rng.New(2).Split("growth")
	limit := func(size int) int { return size / 4 * 3 }
	p.mark([]uint64{0, ^uint64(0)})
	for p.sel.Issued() < limit(maxSlots)+1 {
		w := drive.Uint64()
		if drive.Intn(2) == 0 {
			w = sharedHome(0x12345, w) // one long cluster, wrapping once the table is small
		}
		p.sel.MarkUsed(w)
		p.ref.used[w] = struct{}{}
		p.seen = append(p.seen, w)

		n := p.sel.Issued()
		want := 16
		for limit(want) < n {
			want *= 2
		}
		if got := len(p.sel.used.slots); got != want {
			t.Fatalf("%d words in %d slots, want %d", n, got, want)
		}
		if n == limit(want/2)+1 || n >= limit(want)-1 {
			p.check(fmt.Sprintf("%d words", n))
			for _, w := range p.seen {
				if w != 0 && p.sel.used.slots[p.sel.used.find(w)] != w {
					t.Fatalf("%d words in %d slots: %#x not found", n, want, w)
				}
			}
		}
	}
}

// FuzzSelectorUsedSet is TestSelectorUsedSetMatchesMap's check on
// operation sequences read from the input: each operation is a byte pair
// (op, arg), and MarkUsed and ImportState take their words from the next
// 8·(arg mod 16) bytes.
func FuzzSelectorUsedSet(f *testing.F) {
	f.Add(uint8(63), []byte{0, 20, 1, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8, 3, 9})
	f.Add(uint8(0), []byte{0, 3, 0, 3, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0})
	f.Add(uint8(3), []byte{5, 15, 9, 9, 9, 9, 9, 9, 9, 9, 0, 40, 2, 7, 0, 40})
	f.Fuzz(func(t *testing.T, k uint8, ops []byte) {
		p := newUsedSetPair(t, 1+int(k)%64, 1)
		words := func(n int, collide bool) []uint64 {
			out := make([]uint64, 0, n)
			for ; n > 0 && len(ops) > 0; n-- {
				var chunk [8]byte
				ops = ops[copy(chunk[:], ops):]
				w := binary.LittleEndian.Uint64(chunk[:])
				if collide {
					w = sharedHome(0xBEEF0, w)
				}
				out = append(out, w)
			}
			return out
		}
		for step := 0; len(ops) >= 2 && step < 64; step++ {
			op, arg := ops[0], int(ops[1])
			ops = ops[2:]
			switch op % 4 {
			case 0:
				p.next(arg%24, 1+arg)
			case 1:
				p.mark(words(arg%16, op&4 != 0))
			case 2:
				used := append(words(arg%16, op&4 != 0), p.seen[:len(p.seen)/2]...)
				p.load(SelectorState{Used: used, Budget: arg - 8})
			case 3:
				p.setBudget(arg)
			}
		}
	})
}

// TestSelectorUsedSetFootprint marks 10⁶ words in 16-word records, the
// way journal replay does, and bounds the heap the used set retains.
func TestSelectorUsedSetFootprint(t *testing.T) {
	const words = 1_000_000
	sel := NewSelector(allStableModel(32), rng.New(1))
	src := rng.New(2).Split("footprint")
	var rec [16]uint64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for sel.Issued() < words {
		for i := range rec {
			rec[i] = src.Uint64()
		}
		sel.MarkUsed(rec[:]...)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sel)
	perWord := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(sel.Issued())
	t.Logf("%d words retain %.1f B each", sel.Issued(), perWord)
	if perWord > 24 {
		t.Errorf("used set retains %.1f B per word, want at most 24", perWord)
	}
}

// BenchmarkSelectorNextLargeIssued times one 16-challenge session's
// selection on a chip that has already issued 10⁶ challenges, where every
// used-set insert misses the cache.
func BenchmarkSelectorNextLargeIssued(b *testing.B) {
	cm, err := nominalN4Model()
	if err != nil {
		b.Fatal(err)
	}
	sel := NewSelector(cm, rng.New(5))
	src := rng.New(6).Split("issued")
	var rec [16]uint64
	for sel.Issued() < 1_000_000 {
		for i := range rec {
			rec[i] = src.Uint64() & sel.mask
		}
		sel.MarkUsed(rec[:]...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sel.Next(16, 0); err != nil {
			b.Fatal(err)
		}
	}
}
