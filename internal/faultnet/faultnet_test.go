package faultnet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"xorpuf/internal/rng"
)

// pipePair returns two ends of a loopback TCP connection, the client end
// optionally wrapped with cfg.
func pipePair(t *testing.T, cfg Config, seed uint64) (client net.Conn, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- c
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-done
	if server == nil {
		t.Fatal("accept failed")
	}
	client = WrapConn(raw, cfg, rng.New(seed))
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestZeroConfigPassesThrough(t *testing.T) {
	client, server := pipePair(t, Config{}, 1)
	msg := []byte("hello through an inert faultnet\n")
	go func() {
		if _, err := client.Write(msg); err != nil {
			t.Errorf("write: %v", err)
		}
	}()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("payload altered: %q", got)
	}
	// And the reverse direction, through the wrapped Read.
	go server.Write(msg) //nolint:errcheck
	got2 := make([]byte, len(msg))
	if _, err := io.ReadFull(client, got2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, msg) {
		t.Errorf("read altered payload: %q", got2)
	}
}

func TestCorruptionFlipsExactlyOneByte(t *testing.T) {
	client, server := pipePair(t, Config{CorruptProb: 1}, 2)
	msg := []byte("0123456789abcdef")
	go client.Write(msg) //nolint:errcheck
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	diffs := 0
	for i := range msg {
		if got[i] != msg[i] {
			diffs++
			if got[i] != msg[i]^0x80 {
				t.Errorf("byte %d corrupted to %#x, want %#x", i, got[i], msg[i]^0x80)
			}
		}
	}
	if diffs != 1 {
		t.Errorf("corrupted %d bytes, want exactly 1", diffs)
	}
}

func TestResetAbortsConnection(t *testing.T) {
	client, server := pipePair(t, Config{ResetProb: 1}, 3)
	_, err := client.Write([]byte("doomed"))
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Kind != "reset" {
		t.Fatalf("err = %v, want reset FaultError", err)
	}
	// The peer sees the connection die, not silence.
	server.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if _, err := server.Read(make([]byte, 1)); err == nil {
		t.Error("peer read succeeded after injected reset")
	}
}

func TestPartialWriteDeliversStrictPrefix(t *testing.T) {
	client, server := pipePair(t, Config{PartialWriteProb: 1}, 4)
	msg := []byte("a long enough payload to be cut somewhere in the middle")
	n, err := client.Write(msg)
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Kind != "partial-write" {
		t.Fatalf("err = %v (n=%d), want partial-write FaultError", err, n)
	}
	if n <= 0 || n >= len(msg) {
		t.Fatalf("partial write wrote %d of %d bytes, want a strict prefix", n, len(msg))
	}
	server.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	got, _ := io.ReadAll(server)
	if !bytes.Equal(got, msg[:len(got)]) {
		t.Errorf("delivered bytes are not a prefix: %q", got)
	}
	if len(got) >= len(msg) {
		t.Errorf("peer received %d bytes, want fewer than %d", len(got), len(msg))
	}
}

func TestStallDelaysOperation(t *testing.T) {
	client, server := pipePair(t, Config{StallProb: 1, Stall: 120 * time.Millisecond}, 5)
	start := time.Now()
	go client.Write([]byte("slow\n")) //nolint:errcheck
	got := make([]byte, 5)
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Errorf("stalled write arrived after %v, want ≥ ~120ms", d)
	}
}

// TestDeterministicSchedule runs the same 32-connection workload twice and
// checks the per-connection fault outcomes are identical.
func TestDeterministicSchedule(t *testing.T) {
	run := func() []bool {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		fln := WrapListener(ln, Config{Seed: 42, ResetProb: 0.4})
		outcomes := make([]bool, 32)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(outcomes); i++ {
				conn, err := fln.Accept()
				if err != nil {
					t.Error(err)
					return
				}
				// One echo read per connection; record whether the
				// injected schedule reset it.
				buf := make([]byte, 4)
				_, err = io.ReadFull(conn, buf)
				var fe *FaultError
				outcomes[i] = errors.As(err, &fe)
				conn.Close()
			}
		}()
		for i := 0; i < len(outcomes); i++ {
			c, err := net.Dial("tcp", ln.Addr().String())
			if errors.Is(err, syscall.ECONNRESET) {
				// The server accepted this connection and its injected
				// reset arrived before the client's connect returned; the
				// server side has already finished with it.
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			c.Write([]byte("ping")) //nolint:errcheck
			// Wait for the server to finish with this connection before
			// dialing the next, so accept order is deterministic.
			c.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
			io.ReadAll(c)                                      //nolint:errcheck
			c.Close()
		}
		wg.Wait()
		return outcomes
	}
	a, b := run(), run()
	resets := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("connection %d: run A reset=%v, run B reset=%v", i, a[i], b[i])
		}
		if a[i] {
			resets++
		}
	}
	if resets == 0 || resets == len(a) {
		t.Errorf("reset schedule degenerate: %d/%d connections reset", resets, len(a))
	}
}

func TestDialerWrapsConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				io.Copy(io.Discard, c) //nolint:errcheck
				c.Close()
			}(c)
		}
	}()
	d := NewDialer(Config{ResetProb: 1, Seed: 9})
	conn, err := d.DialContext(context.Background(), "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, ok := conn.(*Conn); !ok {
		t.Fatalf("DialContext returned %T, want *faultnet.Conn", conn)
	}
	if _, err := conn.Write([]byte("x")); err == nil {
		t.Error("write succeeded despite ResetProb=1")
	}
}
