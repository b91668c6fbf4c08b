package netauth

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"xorpuf/internal/wire"
)

// FuzzV2Negotiate throws arbitrary opening bytes at a live server over
// real TCP.  Whatever the first bytes are — a frame, a JSON line from a
// retired protocol v1 device, a torn prefix, a lying length field — the
// server must (a) never hold the connection open once the client's write
// side closes, (b) answer, if it answers at all, with CRC-valid frames,
// and (c) burn no challenge unless the bytes open with a well-formed hello.
func FuzzV2Negotiate(f *testing.F) {
	srv := NewServer(4, 3)
	if err := srv.Register("chip-A", benchChipModel(7, 4, 64)); err != nil {
		f.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	f.Cleanup(srv.Close)
	addr := ln.Addr().String()

	hello := wire.AppendFrame(nil, &wire.Msg{Type: wire.THello, Stream: 0,
		ChipID: "chip-A", Batch: 2, Caps: wire.CapChaCha20Poly1305})
	f.Add(hello)
	f.Add(wire.AppendFrame(nil, &wire.Msg{Type: wire.THello, ChipID: "ghost", Batch: 1}))
	f.Add(wire.AppendFrame(nil, &wire.Msg{Type: wire.TKeyexInit, ChipID: "chip-A",
		Caps: wire.CapChaCha20Poly1305}))
	f.Add([]byte(`{"type":"hello","chip_id":"chip-A"}` + "\n"))   // a v1 JSON hello
	f.Add(hello[:3])                                              // torn frame
	f.Add([]byte{wire.Magic, 0x01, 0x00, 0xFF, 0xFF, 0xFF, 0xFF}) // lying length field
	f.Add([]byte{'\n'})                                           // a lone newline
	f.Add([]byte("{\"type\":\"hello\""))                          // unterminated JSON
	f.Add([]byte{0x00, 0x01, 0x02, 0x03})                         // garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		before := srv.ChipStatus("chip-A").Issued
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Skip("dial:", err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		_, _ = conn.Write(data)
		// Closing the write side hands the server a clean EOF: from here
		// it must finish up and close — a read past the deadline means it
		// hung on a phantom continuation of the client's bytes.
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		reply, err := io.ReadAll(conn)
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("server held the connection open on %q: %v", data, err)
		}
		// Any other read error is a reset: the server closed with our
		// bytes unread, which is a legitimate end to garbage.
		if len(reply) > 0 {
			if err := validStream(reply); err != nil {
				t.Fatalf("malformed reply to %q: %v (reply %x)", data, err, reply)
			}
		}
		if opensWithHello(data) {
			return
		}
		// The server has closed the connection, so its handler — and any
		// issuance it ran — is done.
		if after := srv.ChipStatus("chip-A").Issued; after != before {
			t.Fatalf("%q burned %d challenges without a well-formed hello", data, after-before)
		}
	})
}

// validStream checks the reply parses as complete, CRC-valid frames.
func validStream(data []byte) error {
	r := wire.NewReader(bufio.NewReader(bytes.NewReader(data)))
	defer r.Release()
	var m wire.Msg
	for {
		if _, err := r.Next(&m); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// opensWithHello reports whether data begins with a complete, well-formed
// hello frame — the only opening that may burn challenges.
func opensWithHello(data []byte) bool {
	raw, err := wire.ReadRawFrame(bufio.NewReader(bytes.NewReader(data)))
	if err != nil {
		return false
	}
	var m wire.Msg
	return wire.Decode(raw, &m) == nil && m.Type == wire.THello
}
