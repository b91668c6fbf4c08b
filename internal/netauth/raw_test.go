package netauth

import (
	"bufio"
	"net"
	"testing"
	"time"

	"xorpuf/internal/wire"
)

// rawConn speaks hand-built frames to a server — for the probes no
// well-behaved client sends: forged sessions, bad MACs, short response
// vectors, or bytes that are not frames at all.
type rawConn struct {
	t    testing.TB
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(t testing.TB, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawConn{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (r *rawConn) send(m *wire.Msg) {
	r.t.Helper()
	r.sendBytes(wire.AppendFrame(nil, m))
}

func (r *rawConn) sendBytes(b []byte) {
	r.t.Helper()
	if _, err := r.conn.Write(b); err != nil {
		r.t.Fatal(err)
	}
}

// recv reads and decodes one frame; an error frame comes back as the
// *ProtocolError a client would surface.
func (r *rawConn) recv() (*wire.Msg, error) {
	raw, err := wire.ReadRawFrame(r.br)
	if err != nil {
		return nil, err
	}
	var m wire.Msg
	if err := wire.Decode(raw, &m); err != nil {
		return nil, err
	}
	if m.Type == wire.TError {
		return nil, &ProtocolError{Code: codeFromByte(m.Code), Message: m.ErrMsg,
			Retryable: m.Retryable, Redirect: m.Redirect}
	}
	return &m, nil
}

// expect reads one frame and fails the test unless it has type typ.
func (r *rawConn) expect(typ byte) *wire.Msg {
	r.t.Helper()
	m, err := r.recv()
	if err != nil {
		r.t.Fatalf("want frame type 0x%02x: %v", typ, err)
	}
	if m.Type != typ {
		r.t.Fatalf("got frame type 0x%02x, want 0x%02x", m.Type, typ)
	}
	return m
}
