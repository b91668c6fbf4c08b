package wire

import (
	"sync"
	"sync/atomic"
)

// Frame buffers are pooled so the v2 hot path reaches steady state with
// no per-session allocations: a connection checks a buffer out for its
// lifetime (Reader) or per write batch, and returns it on teardown.
//
// Pooling buffers that alias decoded Msg fields is only safe if no code
// keeps a reference past Release/PutBuf. That invariant is enforced by
// tests, not convention: SetPoison(true) makes PutBuf overwrite the
// buffer with a poison pattern, so any use-after-return shows up as
// corrupted frames instead of silent cross-session data leaks.

const poisonByte = 0xDB

var (
	poison  atomic.Bool
	bufPool = sync.Pool{New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	}}
)

// SetPoison toggles poison-on-return for all pooled buffers. Test-only:
// it trades the pool's speed for aliasing detection.
func SetPoison(on bool) { poison.Store(on) }

// GetBuf checks a frame buffer out of the pool, length zero.
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// maxPooledCap is the largest buffer the pool keeps: one maximal netauth
// frame. A buffer that grew to hold a replication or migration frame
// (up to MaxLinkPayload) is left to the garbage collector instead of
// pinning tens of megabytes behind the session hot path.
const maxPooledCap = MaxPayload + 64

// PutBuf returns a buffer to the pool. With poison enabled the full
// capacity is overwritten first, so stale aliases into the buffer read
// poison instead of another session's frames.
func PutBuf(b *[]byte) {
	if b == nil {
		return
	}
	if poison.Load() {
		full := (*b)[:cap(*b)]
		for i := range full {
			full[i] = poisonByte
		}
	}
	*b = (*b)[:0]
	if cap(*b) > maxPooledCap {
		return
	}
	bufPool.Put(b)
}

// Poisoned reports whether every byte of b equals the poison pattern —
// the property-test hook for the aliasing invariant.
func Poisoned(b []byte) bool {
	for _, v := range b {
		if v != poisonByte {
			return false
		}
	}
	return len(b) > 0
}
