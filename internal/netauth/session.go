// The server's frame event loop (package wire has the frame layout).  One
// connection multiplexes many authentication sessions: a hello frame opens
// `batch` streams at consecutive stream ids, the server issues every
// stream's challenges through ONE registry call — one WAL append and one
// quorum wait for the whole batch — and responses may come back in any
// order.  The loop is single-goroutine per connection, so frames are never
// interleaved mid-write and the per-connection state needs no locking.  The
// same loop serves the inside of an established key-exchange channel, where
// it also carries payload frames.
package netauth

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"xorpuf/internal/registry"
	"xorpuf/internal/telemetry/dtrace"
	"xorpuf/internal/wire"
)

// codes is the structured error taxonomy in wire order: codes[i] travels
// as byte i+1 in the error frame's one-byte code field.  Append new codes;
// never reorder.  It also names the per-code denial counters.
var codes = [...]string{
	CodeBadMessage, CodeUnknownChip, CodeThrottled, CodeLockedOut,
	CodeBusy, CodeSelectionFailed, CodeQuarantined, CodeKeyMismatch,
	CodeKeyexUnavailable, CodeMigrating, CodeMoved,
}

// codeToByte maps a code onto its wire byte.  codeFromByte is its inverse;
// unknown codes and bytes map to bad_message, the code whose contract
// ("retry with a fresh session") is safe for anything unrecognised.
func codeToByte(code string) byte {
	for i, c := range codes {
		if c == code {
			return byte(i + 1)
		}
	}
	return 1
}

func codeFromByte(b byte) string {
	if b == 0 || int(b) > len(codes) {
		return CodeBadMessage
	}
	return codes[b-1]
}

// link is one frame transport under the event loop: the plain TCP
// connection, or the decrypted byte stream of a key-exchange channel
// riding on it.  Output is queued and flushed in one write just before the
// loop would block on a read, so a pipelined batch costs a handful of
// syscalls (or channel boxes) instead of one per frame.
type link struct {
	s     *Server
	conn  net.Conn      // deadlines and teardown
	br    *bufio.Reader // buffered input; nil for a write-only refusal
	rd    *wire.Reader
	out   io.Writer // the connection, or the channel's sealing writer
	wb    *[]byte   // queued output frames
	sizes func(int) // frame-size telemetry
	// inflight is the connection's in-flight work count (Server.conns),
	// shared with the key-exchange channel that rides the connection.
	inflight *atomic.Int32
}

func (s *Server) newLink(conn net.Conn, br *bufio.Reader, out io.Writer, sizes func(int)) *link {
	l := &link{s: s, conn: conn, br: br, out: out, wb: wire.GetBuf(), sizes: sizes}
	if br != nil {
		l.rd = wire.NewReader(br)
	}
	return l
}

// release returns the link's pooled buffers.
func (l *link) release() {
	if l.rd != nil {
		l.rd.Release()
	}
	wire.PutBuf(l.wb)
}

func (l *link) timeout() time.Duration {
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	return l.s.msgTimeout
}

// next reads one frame under the per-message read deadline.
func (l *link) next(m *wire.Msg) error {
	_ = l.conn.SetReadDeadline(time.Now().Add(l.timeout()))
	n, err := l.rd.Next(m)
	if n > 0 {
		l.sizes(n)
	}
	return err
}

// queue appends one encoded frame to the pending output without touching
// the transport.
func (l *link) queue(m *wire.Msg) {
	before := len(*l.wb)
	*l.wb = wire.AppendFrame(*l.wb, m)
	l.sizes(len(*l.wb) - before)
}

// flush writes all queued frames under the per-message write deadline.
func (l *link) flush() error {
	if len(*l.wb) == 0 {
		return nil
	}
	_ = l.conn.SetWriteDeadline(time.Now().Add(l.timeout()))
	_, err := l.out.Write(*l.wb)
	*l.wb = (*l.wb)[:0]
	return err
}

// write queues one frame and flushes immediately — for refusals and the
// key-exchange turns, where the next action is closing or turn-taking.
func (l *link) write(m *wire.Msg) error {
	l.queue(m)
	return l.flush()
}

// acquire counts n units of in-flight work on the connection, unless the
// server is draining or Close has already claimed the connection idle.
func (l *link) acquire(n int) bool {
	for {
		cur := l.inflight.Load()
		if cur < 0 || l.s.closed.Load() {
			return false
		}
		if l.inflight.CompareAndSwap(cur, cur+int32(n)) {
			return true
		}
	}
}

// fail sends a structured error frame and counts the denial.
func (l *link) fail(stream uint64, code string, retryable bool, format string, args ...interface{}) {
	l.s.tel.deny(code)
	_ = l.write(&wire.Msg{
		Type: wire.TError, Stream: stream, Code: codeToByte(code),
		Retryable: retryable, ErrMsg: fmt.Sprintf(format, args...),
	})
}

// refuse sends an admission refusal as an error frame.
func (l *link) refuse(stream uint64, ref *refusal) {
	l.s.tel.deny(ref.code)
	_ = l.write(&wire.Msg{
		Type: wire.TError, Stream: stream, Code: codeToByte(ref.code),
		Retryable: ref.retryable, Redirect: ref.redirect, ErrMsg: ref.msg,
	})
}

// stream is one in-flight multiplexed session: challenges are out, the
// response frame has not arrived yet.
type stream struct {
	id        uint64
	session   [wire.SessionLen]byte
	chipID    string
	entry     *registry.Entry
	predicted []uint8
	start     time.Time
	issued    time.Time
	// rec is the stream's session record (startSession); batched marks
	// streams from a batch > 1 hello, whose latency feeds the pipelined
	// histogram.
	rec     dtrace.Span
	batched bool
}

// serveFrames runs the event loop over one link.  On a plain connection
// chipID is empty and the first frame may be a keyex_init; inside a key
// exchange's channel chipID is the chip the channel is bound to, payload
// frames are accepted, and parent (the key exchange's span) is the trace
// context of hellos that carry none of their own.
func (s *Server) serveFrames(l *link, chipID string, parent dtrace.Context) {
	var (
		m       wire.Msg
		streams []stream
		first   = chipID == ""
	)
	defer func() {
		// Streams the peer abandoned mid-exchange close out as errored
		// sessions.
		for i := range streams {
			s.endStream(&streams[i], "refused:"+CodeBadMessage)
		}
		l.inflight.Add(-int32(len(streams)))
	}()

	for {
		// A draining server keeps the connection only while streams are
		// in flight: once the last verdict is queued, send it and leave.
		if len(streams) == 0 && s.closed.Load() {
			_ = l.flush()
			return
		}
		// Flush queued output before a read that could block.  While more
		// input is already buffered the flush waits — that is what batches
		// a pipelined exchange's frames into single writes.
		if l.br.Buffered() == 0 {
			if err := l.flush(); err != nil {
				return
			}
		}
		if err := l.next(&m); err != nil {
			if errors.Is(err, wire.ErrFrame) {
				// A malformed frame — or bytes that are not a frame at all —
				// gets the structured refusal; raw I/O errors (EOF, reset,
				// timeout) just end the connection.
				l.fail(m.Stream, CodeBadMessage, true, "bad frame")
			}
			return
		}
		switch {
		case m.Type == wire.THello && chipID != "" && m.ChipID != chipID:
			// A channel is bound to the chip that established it: a hello
			// for any other chip is a protocol violation, not a fresh
			// admission decision.
			l.fail(m.Stream, CodeBadMessage, false, "channel is bound to chip %q", chipID)
			return
		case m.Type == wire.THello:
			if !s.hello(l, &m, &streams, parent) {
				return
			}
		case m.Type == wire.TKeyexInit && first:
			s.keyexSession(l, &m)
			return
		case m.Type == wire.TResponses:
			if !s.responses(l, &m, &streams) {
				return
			}
		case m.Type == wire.TPayload && chipID != "":
			if !s.payload(l, &m) {
				return
			}
		case m.Type == wire.TBye:
			_ = l.write(&wire.Msg{Type: wire.TBye})
			return
		default:
			l.fail(m.Stream, CodeBadMessage, true, "unexpected frame type 0x%02x", m.Type)
			return
		}
		first = false
	}
}

// refusedSession records the one session of a hello refused before any
// stream opened.  selected is the failed selection's duration, 0 when the
// hello was refused at admission.
func (s *Server) refusedSession(tc dtrace.Context, chipID, code string, start time.Time, selected time.Duration) {
	rec := s.startSession(tc, "netauth.session", chipID, start)
	if selected > 0 {
		rec.SetAttr("select_us", usAttr(selected))
	}
	s.endSession(&rec, chipID, 0, "refused:"+code)
}

// packWords appends the low width bits of each word (1 ≤ width ≤ 64),
// stage 0 first, to dst in packed LSB-first form: the concatenation a
// challenges frame carries.
func packWords(dst []byte, words []uint64, width int) []byte {
	mask := ^uint64(0) >> uint(64-width)
	var acc uint64 // pending bits, the oldest in bit 0
	n := 0         // how many bits acc holds, always < 64 between words
	for _, w := range words {
		w &= mask
		acc |= w << uint(n)
		if n += width; n >= 64 {
			dst = binary.LittleEndian.AppendUint64(dst, acc)
			n -= 64
			acc = w >> uint(width-n) // the bits of w that did not fit
		}
	}
	for ; n > 0; n -= 8 {
		dst = append(dst, byte(acc))
		acc >>= 8
	}
	return dst
}

// hello opens a batch of multiplexed sessions: one admission decision, one
// batched registry issuance, then a challenges frame per stream.  Returns
// false when the connection must close (refusal or write error); the
// refusal frame, if any, has been sent.
func (s *Server) hello(l *link, m *wire.Msg, streams *[]stream, parent dtrace.Context) bool {
	batch := m.Batch
	if batch <= 0 {
		batch = 1
	}
	for i := range *streams {
		if id := (*streams)[i].id; id-m.Stream < uint64(batch) {
			l.fail(m.Stream, CodeBadMessage, true, "hello reopens stream %d, still in flight", id)
			return false
		}
	}
	start := time.Now()
	chipID := m.ChipID
	// The hello's trace context (if parseable) covers the whole batch: one
	// "select" span for the single batched issuance, then one session span
	// per stream, all siblings under the caller's span.
	tc, traced := dtrace.ParseContext(m.Trace)
	if !traced {
		tc = parent
	}
	entry, ref := s.admitChip(chipID)
	if ref != nil {
		s.refusedSession(tc, chipID, ref.code, start, 0)
		l.refuse(m.Stream, ref)
		return false
	}
	if !l.acquire(batch) {
		// Draining: refuse the new streams, keep serving the old ones.
		s.refusedSession(tc, chipID, CodeBusy, start, 0)
		l.fail(m.Stream, CodeBusy, true, "server shutting down")
		return true
	}
	s.tel.batch(batch)

	// Batched issuance: one Issue call journals (and quorum-commits, when
	// replication is strict) the challenge words for every session in the
	// hello — the amortization that makes pipelined traffic cheap on the
	// registry too.
	selectStart := time.Now()
	selSpan := s.spans.StartSpanAt(tc, "select", selectStart)
	selSpan.SetAttr("batch", strconv.Itoa(batch))
	words, predicted, err := entry.IssueCtx(dtrace.Inject(context.Background(), selSpan.Context()), s.numChallenges*batch, 0)
	selected := time.Since(selectStart)
	s.tel.observeSelect(selectStart)
	if err != nil {
		l.inflight.Add(-int32(batch))
		code, retryable := issueRefusal(err)
		selSpan.SetStatus("error:" + code)
		selSpan.End()
		s.refusedSession(tc, chipID, code, start, selected)
		l.fail(m.Stream, code, retryable, "challenge selection failed: %v", err)
		return false
	}
	selSpan.SetStatus("ok")
	selSpan.End()
	// Replace keeps a chip's stage count, so this is the issued width.
	width := entry.Model().Stages()
	selectUS := usAttr(selected)

	// One CSPRNG read covers the whole batch's session ids.
	ids := make([]byte, wire.SessionLen*batch)
	randomSessionIDs(ids)

	pb := wire.GetBuf()
	defer wire.PutBuf(pb)
	for i := 0; i < batch; i++ {
		st := stream{
			id:        m.Stream + uint64(i),
			chipID:    chipID,
			entry:     entry,
			predicted: predicted[i*s.numChallenges : (i+1)*s.numChallenges],
			start:     start,
			rec:       s.startSession(tc, "netauth.session", chipID, start),
			batched:   batch > 1,
		}
		copy(st.session[:], ids[i*wire.SessionLen:])
		st.rec.SetAttr("session", hex.EncodeToString(st.session[:]))
		st.rec.SetAttr("stream", strconv.FormatUint(st.id, 10))
		st.rec.SetAttr("select_us", selectUS)
		group := words[i*s.numChallenges : (i+1)*s.numChallenges]
		*pb = packWords((*pb)[:0], group, width)
		// Queued, not written: the whole batch's challenge frames go out
		// in one write when the event loop next flushes.  AppendFrame
		// copies the packed bits, so pb is free to be reused immediately.
		l.queue(&wire.Msg{
			Type: wire.TChallenges, Stream: st.id, Session: st.session[:],
			Width: width, Count: s.numChallenges, Packed: *pb,
		})
		st.issued = time.Now()
		*streams = append(*streams, st)
	}
	return true
}

// responses settles one stream's verdict.  Any malformed response —
// unknown stream, session mismatch, wrong count — terminates the
// connection with a structured retryable error: one bad frame ends the
// exchange.
func (s *Server) responses(l *link, m *wire.Msg, streams *[]stream) bool {
	idx := -1
	for i := range *streams {
		if (*streams)[i].id == m.Stream {
			idx = i
			break
		}
	}
	if idx < 0 {
		l.fail(m.Stream, CodeBadMessage, true, "responses for unknown stream %d", m.Stream)
		return false
	}
	st := &(*streams)[idx]
	fail := func(format string, args ...interface{}) bool {
		l.fail(m.Stream, CodeBadMessage, true, format, args...)
		l.settle(streams, idx, "refused:"+CodeBadMessage)
		return false
	}
	if !bytes.Equal(m.Session, st.session[:]) {
		return fail("session mismatch")
	}
	if m.Count != len(st.predicted) {
		return fail("expected %d responses, got %d", len(st.predicted), m.Count)
	}
	s.tel.observeRTT(st.issued)
	st.rec.SetAttr("device_rtt_us", usAttr(time.Since(st.issued)))
	if rtt := s.spans.StartSpanAt(st.rec.Context(), "device_rtt", st.issued); rtt != nil {
		rtt.SetStatus("ok")
		rtt.End()
	}
	mismatches := 0
	for i := range st.predicted {
		if wire.Bit(m.Packed, i) != st.predicted[i]&1 {
			mismatches++
		}
	}
	approved := mismatches == 0 // the paper's zero-HD criterion
	s.mu.Lock()
	lockoutK := s.lockoutK
	s.mu.Unlock()
	ev, transitioned, onHealth := s.applyVerdict(st.entry, lockoutK, approved, mismatches, len(st.predicted))
	st.rec.SetAttr("mismatches", strconv.Itoa(mismatches))
	status := "denied"
	if approved {
		status = "ok"
	}
	l.queue(&wire.Msg{
		Type: wire.TVerdict, Stream: st.id, Approved: approved, Mismatches: mismatches,
	})
	if transitioned && onHealth != nil {
		onHealth(ev)
	}
	l.settle(streams, idx, status)
	return true
}

// payload acknowledges one application payload inside a key-exchange
// channel with its SHA-256 digest, after checking the sender's.
func (s *Server) payload(l *link, m *wire.Msg) bool {
	sum := sha256.Sum256(m.Data)
	if !bytes.Equal(m.Digest, sum[:]) {
		l.fail(m.Stream, CodeBadMessage, true, "payload digest mismatch")
		return false
	}
	s.tel.payload(len(m.Data))
	l.queue(&wire.Msg{Type: wire.TPayloadAck, Stream: m.Stream, Session: m.Session, Digest: sum[:]})
	return true
}

// endStream closes out one stream's session record with status.
func (s *Server) endStream(st *stream, status string) {
	if st.batched {
		s.tel.observePipelined(st.start, exemplar(st.rec.Trace))
	}
	s.endSession(&st.rec, st.chipID, len(st.predicted), status)
}

// settle closes out stream idx with status and removes it from streams
// (reusing the slice's capacity) and from the connection's in-flight
// count.
func (l *link) settle(streams *[]stream, idx int, status string) {
	l.s.endStream(&(*streams)[idx], status)
	l.inflight.Add(-1)
	ss := *streams
	last := len(ss) - 1
	if idx != last {
		ss[idx] = ss[last]
	}
	ss[last] = stream{}
	*streams = ss[:last]
}
