// Device side of the protocol.  V2Client keeps a single connection alive
// and multiplexes batches of sessions over it — the hello's batch field
// opens k streams, and the codec's pooled buffers make the steady-state
// exchange nearly allocation-free on both ends.  The same exchange runs
// inside a key-exchange channel (SecureSession).
package netauth

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"xorpuf/internal/challenge"
	"xorpuf/internal/core"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
	"xorpuf/internal/wire"
)

// Result is the outcome of a client-side authentication run.
type Result struct {
	Approved   bool
	Mismatches int
	Challenges int
	// Attempts is how many protocol attempts the run took (1 = no retry).
	Attempts int
}

// RetryPolicy bounds and paces the client's retries of transient failures.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget, including the first try.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth.
	MaxDelay time.Duration
	// Multiplier scales the delay between consecutive retries (≥ 1).
	Multiplier float64
	// Jitter is the fraction of each delay randomized (0 = fixed delays,
	// 1 = delays drawn uniformly from [½d, 1½d)).  Jitter decorrelates
	// retry storms from many devices that failed at the same instant.
	Jitter float64
}

// DefaultRetryPolicy matches a device on a flaky but usable link: four
// attempts, 50 ms–2 s backoff, ×2 growth, 50 % jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Multiplier:  2,
		Jitter:      0.5,
	}
}

func (p RetryPolicy) normalized() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = def.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = def.MaxDelay
	}
	if p.Multiplier < 1 {
		p.Multiplier = def.Multiplier
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		p.Jitter = def.Jitter
	}
	return p
}

// delay returns the jittered backoff before retry number retry (1-based).
func (p RetryPolicy) delay(retry int, src *rng.Source) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < retry; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.Jitter > 0 {
		d *= 1 - p.Jitter/2 + p.Jitter*src.Float64()
	}
	return time.Duration(d)
}

// V2Client authenticates a device with session pipelining and bounded
// retries.  Set at least Addr, ChipID, and Device.  Methods serialize
// internally; one V2Client drives one connection.
type V2Client struct {
	// Addr is the server's (or gateway's) TCP address.
	Addr string
	// ChipID identifies the enrolled chip.
	ChipID string
	// Device answers challenges (normally the physical chip).
	Device core.Device
	// Cond is the operating condition the device is evaluated at.
	Cond silicon.Condition
	// Timeout is the per-message I/O deadline (default 10 s).
	Timeout time.Duration
	// Policy bounds the retries; zero fields take DefaultRetryPolicy values.
	Policy RetryPolicy
	// DialContext dials the server; nil uses net.Dialer.  Tests inject
	// faultnet.Dialer here.
	DialContext func(ctx context.Context, network, addr string) (net.Conn, error)
	// Jitter seeds backoff jitter; nil lazily seeds from the wall clock.
	Jitter *rng.Source
	// Trace, when set, is a distributed-trace context ("32hex-16hex", see
	// internal/telemetry/dtrace) carried in the hello and keyex_init
	// frames: the server's session spans then nest under the caller's
	// span.  A server treats a malformed value as absent — it can never
	// fail a session.
	Trace string
	// RequireV2 is ignored: protocol v2 is the only protocol.
	RequireV2 bool

	once sync.Once

	mu sync.Mutex
	x  exchange
}

func (c *V2Client) init() {
	c.once.Do(func() {
		if c.Timeout <= 0 {
			c.Timeout = 10 * time.Second
		}
		c.Policy = c.Policy.normalized()
		if c.DialContext == nil {
			var d net.Dialer
			c.DialContext = d.DialContext
		}
		if c.Jitter == nil {
			c.Jitter = rng.New(uint64(time.Now().UnixNano()))
		}
	})
}

// Close tears down the persistent connection (if any).  The client
// remains usable; the next call redials.
func (c *V2Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = c.x.close()
}

// dial opens a fresh connection under the exchange.  Caller holds mu.
func (c *V2Client) dial(ctx context.Context) error {
	dialCtx, cancel := context.WithTimeout(ctx, c.Timeout)
	defer cancel()
	conn, err := c.DialContext(dialCtx, "tcp", c.Addr)
	if err != nil {
		return err
	}
	c.x.open(conn, conn, c.Timeout)
	return nil
}

// Authenticate runs one session — AuthenticateBatch of one.  On error the
// Result still reports how many attempts were spent.
func (c *V2Client) Authenticate(ctx context.Context) (Result, error) {
	res, attempts, err := c.authenticateBatch(ctx, 1)
	if err != nil {
		return Result{Attempts: attempts}, err
	}
	return res[0], nil
}

// AuthenticateBatch pipelines k authentication sessions over the
// persistent connection: one hello opens k streams, the server issues all
// their challenges through one batched (quorum-gated) registry call, and
// the verdicts come back per stream.  Transient failures — I/O errors,
// timeouts, and server errors marked retryable — retry the whole batch
// with jittered exponential backoff; every attempt burns fresh challenges.
// Terminal server errors (unknown_chip, locked_out, quarantined,
// selection_failed) and context cancellation return immediately.  An
// operating condition outside the modeled V/T envelope is rejected up
// front, before any challenge is requested: device reads would panic
// mid-session otherwise, burning the server-side challenges the session
// had already drawn.
func (c *V2Client) AuthenticateBatch(ctx context.Context, k int) ([]Result, error) {
	res, _, err := c.authenticateBatch(ctx, k)
	return res, err
}

func (c *V2Client) authenticateBatch(ctx context.Context, k int) ([]Result, int, error) {
	c.init()
	k, err := batchSize(k)
	if err != nil {
		return nil, 0, err
	}
	if err := c.Cond.Validate(); err != nil {
		return nil, 0, fmt.Errorf("netauth: operating condition: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	res, attempts, err := c.batchLoop(ctx, k)
	clientSessions.Add(uint64(k))
	clientAttempts.Add(uint64(attempts * k))
	if attempts > 1 {
		clientRetries.Add(uint64((attempts - 1) * k))
	}
	if err != nil {
		clientFailures.Add(uint64(k))
	}
	clientSessionSeconds.ObserveSince(start)
	return res, attempts, err
}

// batchSize maps a requested batch onto the streams one hello opens: at
// least one, at most the protocol's cap.
func batchSize(k int) (int, error) {
	if k > wire.MaxBatch {
		return 0, fmt.Errorf("netauth: batch of %d exceeds protocol cap %d", k, wire.MaxBatch)
	}
	return max(k, 1), nil
}

// batchLoop is the retry loop.
func (c *V2Client) batchLoop(ctx context.Context, k int) ([]Result, int, error) {
	var lastErr error
	for attempt := 1; attempt <= c.Policy.MaxAttempts; attempt++ {
		if attempt > 1 {
			if err := sleepCtx(ctx, c.Policy.delay(attempt-1, c.Jitter)); err != nil {
				return nil, attempt - 1, err
			}
		}
		res, err := c.attemptBatch(ctx, k)
		if err == nil {
			for i := range res {
				res[i].Attempts = attempt
			}
			return res, attempt, nil
		}
		_ = c.x.close()
		lastErr = err
		if !Transient(err) {
			return nil, attempt, err
		}
	}
	return nil, c.Policy.MaxAttempts, fmt.Errorf(
		"netauth: giving up after %d attempts: %w", c.Policy.MaxAttempts, lastErr)
}

// attemptBatch runs one pipelined batch over the live connection, dialing
// first if needed.  ChipID, Device, Cond and Trace are read afresh on
// every call.
func (c *V2Client) attemptBatch(ctx context.Context, k int) ([]Result, error) {
	if c.x.conn == nil {
		if err := c.dial(ctx); err != nil {
			return nil, ctxErr(ctx, err)
		}
	}
	conn := c.x.conn
	// Cancellation must interrupt blocked reads/writes, not just the gaps
	// between them: closing the connection fails the pending I/O.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	res, err := c.x.batch(c.ChipID, c.Trace, c.Device, c.Cond, k)
	if err != nil {
		return nil, ctxErr(ctx, err)
	}
	return res, nil
}

// exchange is the device end of one frame transport: a V2Client's TCP
// connection, or the decrypted byte stream of a SecureSession's channel
// riding on one.  Output frames are queued and flushed in one write just
// before a read that could block, so a pipelined batch's responses leave
// together — inside a channel as one sealed box per flush, as the
// server's inner link does.
type exchange struct {
	conn    net.Conn  // deadlines and teardown
	out     io.Writer // the connection, or the channel's sealing stream
	br      *bufio.Reader
	rd      *wire.Reader
	wb      *[]byte // queued output frames
	pb      *[]byte // packed-response scratch, checked out on first use
	scratch challenge.Challenge
	next    uint64 // first stream id of the next hello
	timeout time.Duration
}

// open points the exchange at a fresh transport: frames are read from and
// written to rw, under per-message deadlines set on conn.
func (x *exchange) open(conn net.Conn, rw io.ReadWriter, timeout time.Duration) {
	x.conn, x.out, x.timeout = conn, rw, timeout
	x.br = bufio.NewReader(rw)
	x.rd = wire.NewReader(x.br)
	if x.wb == nil {
		x.wb = wire.GetBuf()
	}
}

// close closes the transport, drops any queued output and returns the
// reader's pooled buffer.  The write and response buffers stay for the
// next open.
func (x *exchange) close() error {
	var err error
	if x.conn != nil {
		err = x.conn.Close()
		x.conn = nil
	}
	if x.rd != nil {
		x.rd.Release()
		x.rd = nil
	}
	x.br = nil
	if x.wb != nil {
		*x.wb = (*x.wb)[:0]
	}
	return err
}

// queue appends one encoded frame to the pending output.
func (x *exchange) queue(m *wire.Msg) {
	*x.wb = wire.AppendFrame(*x.wb, m)
}

// flush writes the queued frames under the per-message deadline.
func (x *exchange) flush() error {
	_ = x.conn.SetWriteDeadline(time.Now().Add(x.timeout))
	_, err := x.out.Write(*x.wb)
	*x.wb = (*x.wb)[:0]
	return err
}

// read reads one frame into m under the per-message deadline, flushing
// the queued frames first when the read could block; while more server
// frames are already buffered the queue keeps growing, so a whole batch's
// responses leave in one write.  A server error frame comes back as a
// *ProtocolError.
func (x *exchange) read(m *wire.Msg) error {
	if len(*x.wb) > 0 && x.br.Buffered() == 0 {
		if err := x.flush(); err != nil {
			return err
		}
	}
	_ = x.conn.SetReadDeadline(time.Now().Add(x.timeout))
	if _, err := x.rd.Next(m); err != nil {
		return err
	}
	if m.Type == wire.TError {
		return protocolError(m)
	}
	return nil
}

// expect reads one frame that must be of type want into m.
func (x *exchange) expect(m *wire.Msg, want byte) error {
	if err := x.read(m); err != nil {
		return err
	}
	if m.Type != want {
		return fmt.Errorf("netauth: unexpected frame type 0x%02x, want 0x%02x", m.Type, want)
	}
	return nil
}

// batch runs one pipelined batch of k sessions for chipID: one hello opens
// k streams, dev answers each challenges frame at cond, and the verdicts
// come back per stream.
func (x *exchange) batch(chipID, trace string, dev core.Device, cond silicon.Condition, k int) ([]Result, error) {
	base := x.next
	x.next += uint64(k)
	x.queue(&wire.Msg{
		Type: wire.THello, Stream: base, ChipID: chipID,
		Batch: k, Caps: wire.CapChaCha20Poly1305, Trace: trace,
	})
	results := make([]Result, k)
	done := make([]bool, k)
	var m wire.Msg
	for remaining := k; remaining > 0; {
		if err := x.read(&m); err != nil {
			return nil, err
		}
		i := int(m.Stream - base)
		switch m.Type {
		case wire.TChallenges:
			if i < 0 || i >= k || done[i] || results[i].Challenges != 0 {
				return nil, fmt.Errorf("netauth: challenges for unexpected stream %d", m.Stream)
			}
			results[i].Challenges = m.Count
			x.answer(&m, dev, cond)
		case wire.TVerdict:
			if i < 0 || i >= k || done[i] {
				return nil, fmt.Errorf("netauth: verdict for unexpected stream %d", m.Stream)
			}
			results[i].Approved = m.Approved
			results[i].Mismatches = m.Mismatches
			done[i] = true
			remaining--
		default:
			return nil, fmt.Errorf("netauth: unexpected frame type 0x%02x", m.Type)
		}
	}
	return results, nil
}

// answer computes and queues the packed response vector for one
// challenges frame.  The challenge scratch and response buffer are reused
// across sessions — the client-side half of the zero-alloc path.
func (x *exchange) answer(m *wire.Msg, dev core.Device, cond silicon.Condition) {
	if cap(x.scratch) < m.Width {
		x.scratch = make(challenge.Challenge, m.Width)
	}
	if x.pb == nil {
		x.pb = wire.GetBuf()
	}
	*x.pb = readChallenges((*x.pb)[:0], x.scratch[:m.Width], dev, cond, m)
	// m.Session and the packed responses alias live buffers; AppendFrame
	// copies them into the write buffer before the next read reuses
	// either.
	x.queue(&wire.Msg{
		Type: wire.TResponses, Stream: m.Stream, Session: m.Session, Count: m.Count, Packed: *x.pb,
	})
}

// readChallenges answers a challenges frame with one single-shot XOR
// readout per challenge and appends the packed response bits to dst.  cc
// is scratch of exactly m.Width bits; each challenge is read from the
// frame as one word per 64 stages and expanded into cc.
func readChallenges(dst []byte, cc challenge.Challenge, dev core.Device, cond silicon.Condition, m *wire.Msg) []byte {
	off := len(dst)
	for i := 0; i < wire.PackedLen(m.Count); i++ {
		dst = append(dst, 0)
	}
	for j := 0; j < m.Count; j++ {
		for lo := 0; lo < len(cc); lo += 64 {
			n := min(64, len(cc)-lo)
			challenge.WordInto(wordAt(m.Packed, j*len(cc)+lo, n), cc[lo:lo+n])
		}
		if dev.ReadXOR(cc, cond)&1 == 1 {
			dst[off+j/8] |= 1 << (j % 8)
		}
	}
	return dst
}

// wordAt returns the n bits (1 ≤ n ≤ 64) of packed that start at bit off,
// bit off in bit 0, the inverse of packWords.  packed must hold bit
// off+n−1.
func wordAt(packed []byte, off, n int) uint64 {
	i, s := off>>3, uint(off&7)
	var w uint64
	if i+8 <= len(packed) {
		w = binary.LittleEndian.Uint64(packed[i:])
	} else {
		for k, b := range packed[i:] {
			w |= uint64(b) << (8 * uint(k))
		}
	}
	w >>= s
	if s+uint(n) > 64 { // the last bits sit in a ninth byte
		w |= uint64(packed[i+8]) << (64 - s)
	}
	return w & (^uint64(0) >> uint(64-n))
}

// protocolError surfaces a server's error frame.
func protocolError(m *wire.Msg) *ProtocolError {
	return &ProtocolError{Code: codeFromByte(m.Code), Message: m.ErrMsg,
		Retryable: m.Retryable, Redirect: m.Redirect}
}

// ctxErr prefers the context's error over the I/O error it caused: a read
// failing because cancellation closed the connection should surface as
// context.Canceled, which the retry loop treats as terminal.
func ctxErr(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// sleepCtx sleeps d or returns early with the context's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Transient classifies an error from a client call: true means a retry may
// succeed (network faults, timeouts, malformed frames, retryable server
// errors), false means give up (terminal server errors, context
// cancellation, bad local state).  Erring transient is safe — the attempt
// budget still bounds the session — but a terminal misclassified as
// transient would burn server-side challenges, so server verdict errors
// always win.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var pe *ProtocolError
	if errors.As(err, &pe) {
		return pe.Retryable
	}
	// Everything else — dial failures, resets, EOFs, deadline
	// expirations, frames corrupted in flight — is a channel problem, not
	// a protocol verdict.
	return true
}
