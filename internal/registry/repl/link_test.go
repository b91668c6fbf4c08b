package repl

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"xorpuf/internal/health"
	"xorpuf/internal/registry"
	"xorpuf/internal/wire"
)

// recAbuse is the registry's abuse-state record type (record.go).
const recAbuse = 3

// scriptConn is the follower's end of a scripted link.  Read serves the
// primary's bursts one at a time, each as the bytes of one primary write;
// Write records every ack the follower sends.  When the follower reads past
// the end of a burst, the read it would block on, the conn notes how many
// acks it has seen, so a test can check what was acked per burst without
// timing anything.
type scriptConn struct {
	bursts [][]byte
	cur    []byte
	next   int
	acks   []uint64
	marks  []int // len(acks) when the follower read past burst i
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.cur) == 0 {
		if c.next > 0 {
			c.marks = append(c.marks, len(c.acks))
		}
		if c.next == len(c.bursts) {
			return 0, io.EOF
		}
		c.cur = c.bursts[c.next]
		c.next++
	}
	n := copy(p, c.cur)
	c.cur = c.cur[n:]
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error) {
	var buf []byte
	typ, payload, err := wire.ReadOpaque(bufio.NewReader(bytes.NewReader(p)), &buf)
	if err != nil {
		return 0, fmt.Errorf("follower wrote a malformed frame: %v", err)
	}
	if typ == fAck {
		seq, err := DecodeU64(payload, "ack")
		if err != nil {
			return 0, err
		}
		c.acks = append(c.acks, seq)
	}
	return len(p), nil
}

func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return nil }
func (c *scriptConn) RemoteAddr() net.Addr             { return nil }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// ackedIn reports how many acks the follower wrote between reading past
// burst-1 and reading past burst, and the last one's seq.
func (c *scriptConn) ackedIn(burst int) (n int, last uint64) {
	from := 0
	if burst > 0 {
		from = c.marks[burst-1]
	}
	got := c.acks[from:c.marks[burst]]
	if len(got) > 0 {
		last = got[len(got)-1]
	}
	return len(got), last
}

// capturedRecord is one journaled record of a source registry.
type capturedRecord struct {
	seq     uint64
	typ     byte
	payload []byte
}

// TestFollowerAcksOncePerBurst feeds a follower scripted primary bursts —
// a record with its trace marker in the same write, a burst larger than the
// follower's read buffer, and a lone record — and requires exactly one ack
// per burst, carrying the burst's last seq, written before the follower
// reads past the burst.  A follower that decides on the ack right after
// each record, skipping it while more bytes are buffered, leaves the first
// burst's ack behind its trace marker and fails here.
func TestFollowerAcksOncePerBurst(t *testing.T) {
	src := openReg(t, "")
	defer src.Close()
	var recs []capturedRecord
	src.AddAppendObserver(func(seq uint64, typ byte, payload []byte) {
		recs = append(recs, capturedRecord{seq, typ, bytes.Clone(payload)})
	})
	if err := src.Register("chip-a", syntheticModel(2, 16), 0); err != nil {
		t.Fatal(err)
	}
	e := src.Lookup("chip-a")
	for i := 0; i < 2; i++ {
		if _, _, err := e.IssueKeyCtx(context.Background(), 255, 0); err != nil {
			t.Fatal(err)
		}
	}
	e.Verdict(false, 0)
	e.RecordAuth(health.Outcome{Approved: false, Mismatches: 3, Challenges: 16})
	e.Verdict(true, 0)
	if len(recs) != 6 {
		t.Fatalf("source journaled %d records, want 6", len(recs))
	}
	frame := func(r capturedRecord) []byte {
		return wire.AppendOpaque(nil, fRecord, RecordPayload(r.seq, r.typ, r.payload))
	}
	concat := func(rs ...capturedRecord) []byte {
		var b []byte
		for _, r := range rs {
			b = append(b, frame(r)...)
		}
		return b
	}

	handshake := wire.AppendOpaque(nil, fSnapBegin, snapBeginPayload(0, 0, 0))
	handshake = wire.AppendOpaque(handshake, fSnapEnd, nil)
	withMark := wire.AppendOpaque(frame(recs[0]), fTraceMark, traceMarkPayload(1, "not-a-trace-context"))
	big := concat(recs[1:5]...)
	if len(big) <= 4096 { // bufio.NewReader's buffer
		t.Fatalf("large burst is %d bytes, want more than the follower's 4096-byte read buffer", len(big))
	}
	conn := &scriptConn{bursts: [][]byte{handshake, withMark, big, concat(recs[5])}}

	dst := openReg(t, "")
	defer dst.Close()
	f := NewFollower(dst, "scripted", FollowerConfig{
		Dial: func(context.Context, string, string) (net.Conn, error) { return conn, nil },
	})
	if err := f.session(context.Background()); err != io.EOF {
		t.Fatalf("session ended with %v, want the script's EOF", err)
	}
	if len(conn.marks) != len(conn.bursts) {
		t.Fatalf("follower read past %d of %d bursts", len(conn.marks), len(conn.bursts))
	}
	for i, want := range []uint64{0, 1, 5, 6} {
		n, last := conn.ackedIn(i)
		if n != 1 || last != want {
			t.Errorf("burst %d: %d acks (last %d) before the next read, want exactly 1 carrying seq %d", i, n, last, want)
		}
	}
	if got := dst.Seq(); got != 6 {
		t.Fatalf("follower applied through seq %d, want 6", got)
	}
}

// TestElidedVerdictsChangeNoState runs approvals, denials up to lockout, an
// unlock and approvals again on a durable primary with a strict follower and
// a migration target tailing it.  An approval that finds the denial streak
// at 0 journals nothing, so the WAL's abuse records must number exactly the
// streak or lock changes, and the live, WAL-recovered, follower and
// migrated copies must still agree on denials, lockout and health.
func TestElidedVerdictsChangeNoState(t *testing.T) {
	primDir := t.TempDir()
	primReg := openReg(t, primDir)
	defer primReg.Close()
	follReg := openReg(t, t.TempDir())
	defer follReg.Close()
	ids := []string{"chip-a", "chip-b"}
	for _, id := range ids {
		if err := primReg.Register(id, syntheticModel(2, 16), 0); err != nil {
			t.Fatal(err)
		}
	}
	c := startCluster(t, primReg, follReg, PrimaryConfig{Quorum: 1, Strict: true}, nil)
	waitFor(t, "snapshot bootstrap", func() bool { return c.follReg.Len() == len(ids) })

	// The migration target installs the range now and then takes every
	// later record as a live delta, as a rebalance source ships it.
	target := openReg(t, t.TempDir())
	defer target.Close()
	snap, _, _, err := primReg.RangeSnapshot("", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := target.InstallMigrating("mig-1", "", "", snap); err != nil {
		t.Fatal(err)
	}
	primReg.AddAppendObserver(func(_ uint64, typ byte, payload []byte) {
		if _, err := target.ApplyMigrated("mig-1", typ, bytes.Clone(payload)); err != nil {
			t.Errorf("migrated delta type %d: %v", typ, err)
		}
	})

	const lockoutK = 3
	changes := 0
	step := func(e *registry.Entry, op func()) {
		before := e.Status()
		op()
		after := e.Status()
		if before.Denials != after.Denials || before.Locked != after.Locked {
			changes++
		}
	}
	src := rand.New(rand.NewSource(36))
	for round := 0; round < 3; round++ {
		for _, id := range ids {
			e := primReg.Lookup(id)
			if _, _, err := e.Issue(4, 0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				step(e, func() { e.Verdict(true, lockoutK) })
			}
			for i := 0; i < 1+src.Intn(lockoutK); i++ {
				step(e, func() { e.Verdict(false, lockoutK) })
				e.RecordAuth(health.Outcome{Approved: false, Mismatches: 1 + src.Intn(4), Challenges: 16})
			}
			step(e, func() { e.Verdict(true, lockoutK) })
			for i := 0; i < lockoutK; i++ {
				step(e, func() { e.Verdict(false, lockoutK) })
			}
			if !e.Status().Locked {
				t.Fatalf("%s not locked after %d denials", id, lockoutK)
			}
			step(e, func() { e.Unlock() })
			for i := 0; i < 2; i++ {
				step(e, func() { e.Verdict(true, lockoutK) })
				e.RecordAuth(health.Outcome{Approved: true, Challenges: 16})
			}
		}
	}
	waitFor(t, "follower catch-up", func() bool { return follReg.Seq() == primReg.Seq() })
	if _, err := target.CutoverTarget("mig-1", 1); err != nil {
		t.Fatal(err)
	}

	abuse := 0
	err = registry.IterateWAL(filepath.Join(primDir, "registry.wal"), func(_ uint64, typ byte, _ []byte) error {
		if typ == recAbuse {
			abuse++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if abuse != changes {
		t.Errorf("primary WAL holds %d abuse records for %d streak or lock changes", abuse, changes)
	}

	recovered := openReg(t, copyDir(t, primDir))
	defer recovered.Close()
	for _, id := range ids {
		want := primReg.Lookup(id).Status()
		for _, cp := range []struct {
			name string
			reg  *registry.Registry
		}{{"recovered", recovered}, {"follower", follReg}, {"migrated", target}} {
			ce := cp.reg.Lookup(id)
			if ce == nil {
				t.Fatalf("%s: %s missing", cp.name, id)
			}
			got := ce.Status()
			if got.Denials != want.Denials || got.Locked != want.Locked ||
				got.Health != want.Health || got.HealthStats != want.HealthStats {
				t.Errorf("%s %s: denials %d locked %v health %v %+v, live has %d %v %v %+v",
					cp.name, id, got.Denials, got.Locked, got.Health, got.HealthStats,
					want.Denials, want.Locked, want.Health, want.HealthStats)
			}
		}
	}
}

// copyDir copies a registry directory's files into a fresh one.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(dir, n.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, n.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestLinkOrderUnderConcurrentFlushers has eight goroutines issue under a
// strict quorum — each flushing the link itself — while others journal
// verdict and health records, which only the link goroutine writes, for
// longer than a heartbeat interval.  The follower's WAL must then be
// gap-free and byte-identical to the primary's, and the follower must reach
// the primary's seq with no further appends: no frame left queued.
func TestLinkOrderUnderConcurrentFlushers(t *testing.T) {
	opts := registry.Options{Seed: testRegSeed, SnapshotEvery: -1}
	primDir, follDir := t.TempDir(), t.TempDir()
	primReg, err := registry.Open(primDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer primReg.Close()
	follReg, err := registry.Open(follDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer follReg.Close()
	c := startCluster(t, primReg, follReg, PrimaryConfig{Quorum: 1, Strict: true}, nil)
	waitFor(t, "streaming follower", func() bool { return c.foll.Status().State == StateStreaming })

	const issuers = 8
	ids := make([]string, issuers)
	for i := range ids {
		ids[i] = fmt.Sprintf("chip-%d", i)
		if err := primReg.Register(ids[i], syntheticModel(2, 16), 0); err != nil {
			t.Fatal(err)
		}
	}
	until := time.Now().Add(heartbeatEvery * 3 / 2)
	var wg sync.WaitGroup
	errs := make(chan error, issuers)
	for i := 0; i < issuers; i++ {
		e := primReg.Lookup(ids[i])
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20 || time.Now().Before(until); n++ {
				if _, _, err := e.Issue(4, 0); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	for w := 0; w < 2; w++ {
		src := rand.New(rand.NewSource(int64(w)))
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := primReg.Lookup(ids[src.Intn(issuers)])
				e.Verdict(src.Intn(2) == 0, 0)
				e.RecordAuth(health.Outcome{Approved: true, Challenges: 4})
			}
		}()
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("strict-quorum issue: %v", err)
	}

	waitFor(t, "follower at the primary's seq", func() bool { return follReg.Seq() == primReg.Seq() })
	var next uint64 = 1
	err = registry.IterateWAL(filepath.Join(follDir, "registry.wal"), func(seq uint64, _ byte, _ []byte) error {
		if seq != next {
			return fmt.Errorf("follower WAL has seq %d where %d belongs", seq, next)
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next-1 != primReg.Seq() {
		t.Fatalf("follower WAL ends at seq %d, primary at %d", next-1, primReg.Seq())
	}
	pw, err := os.ReadFile(filepath.Join(primDir, "registry.wal"))
	if err != nil {
		t.Fatal(err)
	}
	fw, err := os.ReadFile(filepath.Join(follDir, "registry.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pw, fw) {
		t.Fatalf("follower WAL (%d bytes) differs from the primary's (%d bytes)", len(fw), len(pw))
	}
}

// TestIdleLinkHeartbeatsAfterIssue: an issuer writes its burn under its
// own ack deadline, far shorter than a heartbeat interval.  When the link
// then idles, every heartbeat must still leave under a fresh deadline: the
// link stays up and the follower on its first connection.
func TestIdleLinkHeartbeatsAfterIssue(t *testing.T) {
	primReg := openReg(t, "")
	follReg := openReg(t, "")
	defer primReg.Close()
	defer follReg.Close()
	if err := primReg.Register("chip-a", syntheticModel(2, 16), 0); err != nil {
		t.Fatal(err)
	}
	c := startCluster(t, primReg, follReg, PrimaryConfig{Quorum: 1, Strict: true, AckTimeout: 50 * time.Millisecond}, nil)
	waitFor(t, "streaming follower", func() bool { return c.foll.Status().State == StateStreaming })
	drops := replLinkDrops.Value()
	if _, _, err := primReg.Lookup("chip-a").Issue(4, 0); err != nil {
		t.Fatalf("strict-quorum issue: %v", err)
	}
	time.Sleep(3 * heartbeatEvery)
	if got := replLinkDrops.Value() - drops; got != 0 {
		t.Fatalf("%d link drops while the link idled", got)
	}
	if st := c.foll.Status(); st.Disconnects != 0 || st.State != StateStreaming {
		t.Fatalf("follower %s after %d disconnects, want streaming on its first connection", st.State, st.Disconnects)
	}
	if _, _, err := primReg.Lookup("chip-a").Issue(4, 0); err != nil {
		t.Fatalf("strict-quorum issue after the idle gap: %v", err)
	}
}
