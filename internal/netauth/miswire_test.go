package netauth

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"xorpuf/internal/registry"
	"xorpuf/internal/registry/rebalance"
	"xorpuf/internal/registry/repl"
	"xorpuf/internal/wire"
)

// openingFrame starts a client against a capture listener and returns the
// first frame it sends.  start returns a func that waits for the client to
// give up once the capture connection is gone.
func openingFrame(t *testing.T, start func(addr string) (wait func())) []byte {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wait := start(ln.Addr().String())
	conn, err := ln.Accept()
	ln.Close()
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	var buf []byte
	_, _, err = wire.ReadOpaque(bufio.NewReader(conn), &buf)
	conn.Close()
	if err != nil {
		t.Fatalf("capturing opening frame: %v", err)
	}
	wait()
	return buf
}

func volatileRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	reg, err := registry.Open("", registry.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	return reg
}

// TestMisWiredLinksRefusedAtTypeCheck sends each protocol's opening frame
// to another protocol's listener.  All three speak internal/wire frames,
// so every frame passes the framing and CRC checks; the disjoint type
// ranges are what must stop it — before a snapshot is sent, a challenge is
// burned, or migration state is journaled.
func TestMisWiredLinksRefusedAtTypeCheck(t *testing.T) {
	netauthHello := wire.AppendFrame(nil, &wire.Msg{Type: wire.THello, Stream: 1, ChipID: "chip-A", Batch: 1})
	replHello := openingFrame(t, func(addr string) func() {
		f := repl.NewFollower(volatileRegistry(t), addr, repl.FollowerConfig{})
		ctx, cancel := context.WithCancel(context.Background())
		go f.Run(ctx)
		return func() { cancel(); f.Promote() }
	})
	rebalanceHello := openingFrame(t, func(addr string) func() {
		src, err := rebalance.StartSource(volatileRegistry(t), rebalance.SourceConfig{
			MigrationID: "mig-x", Lo: "chip-A", Hi: "chip-B", TargetAddr: addr, MaxAttempts: 1})
		if err != nil {
			t.Fatal(err)
		}
		return func() { _ = src.Wait() }
	})

	// The three listeners, each with the check that nothing happened.
	authAddr, srv, _ := startServer(t, 10)
	authRefused := func(t *testing.T, reply []byte) {
		var m wire.Msg
		if err := wire.Decode(reply, &m); err != nil || m.Type != wire.TError || codeFromByte(m.Code) != CodeBadMessage {
			t.Fatalf("netauth reply %x (%v), want one bad_message error frame", reply, err)
		}
		if st := srv.ChipStatus("chip-A"); st.Issued != 0 {
			t.Fatalf("mis-wired frame burned %d challenges", st.Issued)
		}
	}

	primary := repl.NewPrimary(volatileRegistry(t), repl.PrimaryConfig{})
	t.Cleanup(primary.Close)
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go primary.Serve(pln) //nolint:errcheck
	primaryRefused := func(t *testing.T, reply []byte) {
		if len(reply) != 0 {
			t.Fatalf("primary answered a foreign hello with %d bytes, want none (no snapshot)", len(reply))
		}
		if n := len(primary.Status().Followers); n != 0 {
			t.Fatalf("foreign hello registered %d followers", n)
		}
	}

	target := volatileRegistry(t)
	aln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	acceptor := rebalance.NewAcceptor(target, aln, rebalance.AcceptorConfig{})
	t.Cleanup(func() { acceptor.Close() })
	acceptorRefused := func(t *testing.T, reply []byte) {
		var buf []byte
		_, payload, err := wire.ReadOpaque(bufio.NewReader(bytes.NewReader(reply)), &buf)
		if err != nil {
			t.Fatalf("acceptor reply %x: %v", reply, err)
		}
		if le, err := repl.DecodeError(payload); err != nil || le.Code != rebalance.CodeProto {
			t.Fatalf("acceptor reply %q (%v), want a proto error", payload, err)
		}
		if seq := target.Seq(); seq != 0 {
			t.Fatalf("acceptor journaled %d records for a foreign hello", seq)
		}
	}

	for _, tc := range []struct {
		name    string
		frame   []byte
		addr    string
		refused func(*testing.T, []byte)
	}{
		{"netauth hello to repl primary", netauthHello, pln.Addr().String(), primaryRefused},
		{"repl hello to netauth server", replHello, authAddr, authRefused},
		{"rebalance hello to repl primary", rebalanceHello, pln.Addr().String(), primaryRefused},
		{"repl hello to migration acceptor", replHello, aln.Addr().String(), acceptorRefused},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			reply, err := io.ReadAll(conn) // every listener closes a refused link
			if err != nil {
				t.Fatalf("reading reply: %v", err)
			}
			tc.refused(t, reply)
		})
	}
}
