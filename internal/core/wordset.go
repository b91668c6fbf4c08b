package core

import "math/bits"

// wordSet is the set of every challenge word a Selector has issued: open
// addressing with linear probing over a power-of-two table of words, slot
// value 0 meaning empty and word 0 kept as a flag.  A word's home slot is
// the top log2(len(slots)) bits of w·φ, φ = 2⁶⁴/golden ratio, so doubling
// the table sends slot i to 2i or 2i+1 and a rehash walks the old table in
// order while writing the new one almost sequentially.  The table doubles
// before it passes ¾ load, so it holds 10.7–21.3 B per word; words never
// leave the set, so there is no delete and no tombstone.
type wordSet struct {
	slots []uint64
	shift uint // 64 − log2(len(slots))
	n     int  // distinct words held, word 0 included
	zero  bool // word 0 is held
}

// wordSetPhi is 2⁶⁴/φ rounded to odd, Fibonacci hashing's multiplier.
const wordSetPhi = 0x9E3779B97F4A7C15

// minWordSetSlots is the smallest table reserve allocates.
const minWordSetSlots = 16

// reserve makes room for extra more words, so that the next extra adds
// keep the table at or under ¾ load without growing it.
func (t *wordSet) reserve(extra int) {
	need := t.n + extra
	size := max(len(t.slots), minWordSetSlots)
	for size/4*3 < need {
		size *= 2
	}
	if size == len(t.slots) {
		return
	}
	old := t.slots
	t.slots = make([]uint64, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, w := range old {
		if w != 0 {
			t.slots[t.find(w)] = w
		}
	}
}

// find returns the slot that holds w, or the empty slot where w belongs.
// w must not be 0.
func (t *wordSet) find(w uint64) int {
	mask := uint64(len(t.slots) - 1)
	i := w * wordSetPhi >> t.shift
	for s := t.slots[i]; s != w && s != 0; s = t.slots[i] {
		i = (i + 1) & mask
	}
	return int(i)
}

// add inserts w and reports whether it was new.  A reserve must have made
// room for it.
func (t *wordSet) add(w uint64) bool {
	if w == 0 {
		if t.zero {
			return false
		}
		t.zero = true
	} else {
		i := t.find(w)
		if t.slots[i] == w {
			return false
		}
		t.slots[i] = w
	}
	t.n++
	return true
}

// appendTo appends the set's words to dst in slot order, word 0 first.
func (t *wordSet) appendTo(dst []uint64) []uint64 {
	if t.zero {
		dst = append(dst, 0)
	}
	for _, w := range t.slots {
		if w != 0 {
			dst = append(dst, w)
		}
	}
	return dst
}
