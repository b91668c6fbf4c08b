// Package faultnet wraps net.Listener and net.Conn with deterministic,
// seeded fault injection: connection resets, latency jitter, stalls,
// partial writes, and byte corruption, each with a configurable
// probability.  Every wrapped connection draws its faults from an
// independent child of one seeded rng stream, so a given (seed, connection
// order) reproduces the exact same fault schedule run after run — failure
// modes seen once in production chaos can be pinned down in a unit test.
//
// The wrappers sit below any protocol: netauth's resilience tests drive the
// full Fig 7 authentication protocol through them, but nothing in this
// package knows about PUFs.
//
// Fault semantics per I/O operation:
//
//   - reset: the underlying connection is aborted (SO_LINGER 0 on TCP, so
//     the peer sees RST rather than a clean FIN) and the operation fails
//     with a *FaultError of kind "reset".
//   - stall: the operation sleeps for Config.Stall before proceeding —
//     long stalls trip the peer's deadline, modelling a hung middlebox.
//   - latency: every operation sleeps a uniform [0, MaxLatency) jitter.
//   - corrupt (writes only): one byte of the payload is XORed with 0x80
//     before hitting the wire; the write still reports success.
//   - partial (writes only): a strict prefix of the payload is written,
//     then the connection is aborted, and the write fails with a
//     *FaultError of kind "partial-write".
package faultnet

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"xorpuf/internal/rng"
)

// Config sets per-operation fault probabilities (each in [0,1]) and
// magnitudes.  The zero value injects nothing and passes I/O through
// untouched.
type Config struct {
	// Seed drives the fault schedule; connections wrapped by the same
	// listener/dialer in the same order see the same faults.
	Seed uint64
	// ResetProb aborts the connection at the start of a read or write.
	ResetProb float64
	// StallProb sleeps Stall before a read or write proceeds.
	StallProb float64
	// Stall is how long a stalled operation sleeps (default 500 ms).
	Stall time.Duration
	// CorruptProb flips one byte (XOR 0x80) of a written payload.  The
	// 0x80 flip guarantees the corrupted frame is no longer clean ASCII,
	// so JSON peers fail to parse it rather than silently accepting a
	// flipped bit.
	CorruptProb float64
	// PartialWriteProb writes a strict prefix of the payload and then
	// aborts the connection.
	PartialWriteProb float64
	// MaxLatency adds a uniform [0, MaxLatency) delay to every
	// operation; 0 disables latency injection.
	MaxLatency time.Duration
}

// Injects reports whether c injects any fault at all.
func (c Config) Injects() bool {
	return c.ResetProb > 0 || c.CorruptProb > 0 || c.StallProb > 0 ||
		c.PartialWriteProb > 0 || c.MaxLatency > 0
}

func (c Config) stall() time.Duration {
	if c.Stall <= 0 {
		return 500 * time.Millisecond
	}
	return c.Stall
}

// FaultError reports an injected fault.  It satisfies net.Error with
// Timeout() == false, so protocol code treats it like any other broken
// connection.
type FaultError struct {
	Op   string // "read" or "write"
	Kind string // "reset" or "partial-write"
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("faultnet: injected %s fault during %s", e.Kind, e.Op)
}

// Timeout implements net.Error.
func (e *FaultError) Timeout() bool { return false }

// Temporary implements the historical net.Error method; injected faults
// are transient by construction.
func (e *FaultError) Temporary() bool { return true }

// Listener wraps an inner listener so every accepted connection injects
// faults from its own deterministic stream.
type Listener struct {
	net.Listener
	cfg Config

	mu   sync.Mutex
	src  *rng.Source
	next int
}

// WrapListener wraps ln with fault injection configured by cfg.
func WrapListener(ln net.Listener, cfg Config) *Listener {
	return &Listener{Listener: ln, cfg: cfg, src: rng.New(cfg.Seed)}
}

// Accept accepts from the inner listener and returns a fault-injecting
// connection.  The i-th accepted connection always draws from the same
// rng child, regardless of what earlier connections did.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	src := l.src.SplitIndex(l.next)
	l.next++
	l.mu.Unlock()
	return WrapConn(conn, l.cfg, src), nil
}

// Dialer produces fault-injecting client connections; the i-th dial draws
// from the i-th rng child, mirroring Listener.
type Dialer struct {
	cfg    Config
	dialer net.Dialer

	mu   sync.Mutex
	src  *rng.Source
	next int
}

// NewDialer creates a dialer whose connections inject faults per cfg.
func NewDialer(cfg Config) *Dialer {
	return &Dialer{cfg: cfg, src: rng.New(cfg.Seed)}
}

// DialContext dials like net.Dialer and wraps the result.  Its signature
// matches netauth.V2Client.DialContext.
func (d *Dialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := d.dialer.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	src := d.src.SplitIndex(d.next)
	d.next++
	d.mu.Unlock()
	return WrapConn(conn, d.cfg, src), nil
}

// Conn injects faults into one connection's reads and writes.  Deadlines,
// addresses, and Close pass through to the wrapped connection.
type Conn struct {
	net.Conn
	cfg Config

	mu  sync.Mutex
	src *rng.Source
}

// WrapConn wraps conn with fault injection drawing randomness from src.
func WrapConn(conn net.Conn, cfg Config, src *rng.Source) *Conn {
	return &Conn{Conn: conn, cfg: cfg, src: src}
}

// roll consumes one uniform draw; the caller holds c.mu.  Drawing even for
// p == 0 keeps the stream position identical across configs, so enabling
// one fault class does not reshuffle another's schedule.
func (c *Conn) roll(p float64) bool { return c.src.Float64() < p }

// latency draws the per-op jitter; the caller holds c.mu.
func (c *Conn) latency() time.Duration {
	if c.cfg.MaxLatency <= 0 {
		return 0
	}
	return time.Duration(c.src.Float64() * float64(c.cfg.MaxLatency))
}

// abort tears the connection down abruptly.  On TCP, SO_LINGER 0 makes the
// kernel send RST, so the peer observes a genuine connection reset.
func (c *Conn) abort() {
	if tcp, ok := c.Conn.(*net.TCPConn); ok {
		_ = tcp.SetLinger(0)
	}
	_ = c.Conn.Close()
}

// Read injects reset/stall/latency faults, then reads from the wrapped
// connection.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	reset := c.roll(c.cfg.ResetProb)
	stall := c.roll(c.cfg.StallProb)
	lat := c.latency()
	c.mu.Unlock()
	if reset {
		c.abort()
		return 0, &FaultError{Op: "read", Kind: "reset"}
	}
	if stall {
		time.Sleep(c.cfg.stall())
	}
	if lat > 0 {
		time.Sleep(lat)
	}
	return c.Conn.Read(p)
}

// Write injects reset/stall/latency/corruption/partial-write faults, then
// writes to the wrapped connection.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	reset := c.roll(c.cfg.ResetProb)
	stall := c.roll(c.cfg.StallProb)
	corrupt := c.roll(c.cfg.CorruptProb)
	partial := c.roll(c.cfg.PartialWriteProb)
	corruptAt, partialLen := 0, 0
	if len(p) > 0 {
		corruptAt = c.src.Intn(len(p))
	}
	if len(p) > 1 {
		partialLen = 1 + c.src.Intn(len(p)-1)
	}
	lat := c.latency()
	c.mu.Unlock()

	if reset {
		c.abort()
		return 0, &FaultError{Op: "write", Kind: "reset"}
	}
	if stall {
		time.Sleep(c.cfg.stall())
	}
	if lat > 0 {
		time.Sleep(lat)
	}
	buf := p
	if corrupt && len(p) > 0 {
		buf = append([]byte(nil), p...)
		buf[corruptAt] ^= 0x80
	}
	if partial && len(buf) > 1 {
		n, err := c.Conn.Write(buf[:partialLen])
		c.abort()
		if err == nil {
			err = &FaultError{Op: "write", Kind: "partial-write"}
		}
		return n, err
	}
	return c.Conn.Write(buf)
}
