// Package repl replicates a registry by WAL shipping: a primary streams
// every journaled record to connected followers over framed TCP, new or
// lagging followers bootstrap from a full XPS2 snapshot and then tail the
// log, and challenge issuance can be gated on follower acknowledgements so
// the paper's never-reuse invariant holds across primary loss, not just
// primary restart.
//
// One TCP connection per follower, follower dials.  Frames are
// internal/wire opaque frames in the type range 0x20–0x28; their payloads
// are:
//
//	fHello     f→p  version(1) lastSeq(u64)
//	fSnapBegin p→f  snapSeq(u64) dataLen(u64) walBytes(u64)
//	fSnapChunk p→f  raw snapshot bytes
//	fSnapEnd   p→f  (empty)
//	fRecord    p→f  seq(u64) rectype(1) payload (one WAL record)
//	fAck       f→p  appliedSeq(u64)
//	fHeartbeat p→f  primarySeq(u64) walBytes(u64)
//	fError     ↔    code(str16) message(rest)
//	fTraceMark p→f  seq(u64) trace-context(rest, see internal/telemetry/dtrace)
//
// The record, ack and error layouts are shared with the migration stream
// (internal/registry/rebalance) through RecordPayload, U64Payload and
// ErrorPayload and their decoders.
//
// fTraceMark is pure observability: it tags an already-shipped record with
// the distributed-trace context of the session that burned it, so the
// follower can record its apply+ack as a span in its own process ring.  A
// marker is best-effort end to end — dropped under backpressure, ignored
// when malformed — and is never acknowledged; trace loss is acceptable,
// log divergence is not.
//
// Every session starts hello → snapshot (dataLen 0 when the follower is
// already at the cut) → record stream.  The follower acknowledges a record
// only after Registry.ApplyReplicated has durably journaled and applied it,
// once per burst of frames the primary wrote together;
// anything that cannot be applied exactly — a sequence gap, a corrupt frame,
// a local WAL failure — is terminal for the link: the follower degrades and
// reconnects (re-bootstrapping from a snapshot), it never forks the log.
package repl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"xorpuf/internal/wire"
)

// protocolVersion 2 is the first on internal/wire framing: a version-1
// peer's frames fail at their first byte, which is not wire.Magic.
const protocolVersion = 2

// Frame types, in a range disjoint from netauth's (0x01–0x0C) and
// rebalance's (0x10–0x1A), so a link wired to the wrong port is refused at
// the type check.
const (
	fHello     byte = 0x20
	fSnapBegin byte = 0x21
	fSnapChunk byte = 0x22
	fSnapEnd   byte = 0x23
	fRecord    byte = 0x24
	fAck       byte = 0x25
	fHeartbeat byte = 0x26
	fError     byte = 0x27
	fTraceMark byte = 0x28
)

const (
	// ioTimeout bounds one handshake, snapshot or record frame read or
	// write on a replication link.
	ioTimeout = 10 * time.Second
	// heartbeatEvery is the primary's idle-link heartbeat interval.
	heartbeatEvery = 500 * time.Millisecond
	// idleTimeout is the longest silence a follower tolerates on a
	// streaming link before it declares the link dead.  The primary
	// heartbeats an idle link every heartbeatEvery (500 ms), so this is 20
	// missed heartbeats.
	idleTimeout = 10 * time.Second
	// linkBuffer is how many frames a follower's link may hold queued and
	// unwritten; a follower that falls further behind than this is dropped
	// and re-bootstraps from a snapshot.
	linkBuffer = 4096

	// maxUnacked is the most records a follower applies between acks
	// while a backlog keeps its read buffer from draining; a drained
	// buffer acks at once.
	maxUnacked = 64

	// maxKeptBuf is the largest frame or link-queue buffer kept for reuse;
	// a bigger one is left to the collector.
	maxKeptBuf = 64 << 10

	// snapChunkSize is how much snapshot data rides in one fSnapChunk.
	snapChunkSize = 256 << 10

	// maxSnapshotBytes bounds an advertised snapshot transfer.
	maxSnapshotBytes = 1 << 32
)

// Link error codes carried by fError frames and LinkError values.
const (
	CodeSeqGap   = "seq_gap"  // record does not extend the local log
	CodeApply    = "apply"    // local journal/apply failure (WAL append, fsync, decode)
	CodeProto    = "proto"    // malformed or unexpected frame
	CodeShutdown = "shutdown" // orderly close of the other end
	CodeDiverged = "diverged" // follower log is ahead of the primary's
)

// LinkError is the structured, terminal error that ends a replication
// session.  The same code travels in the fError frame so the peer can
// attribute the drop.
type LinkError struct {
	Code string
	Msg  string
}

func (e *LinkError) Error() string { return "repl: " + e.Code + ": " + e.Msg }

func linkErrf(code, format string, args ...interface{}) *LinkError {
	return &LinkError{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// SendSnapshot ships data as frames of type chunk, at most snapChunkSize
// bytes each, then an empty frame of type end, renewing conn's deadline by
// timeout before every write.  Replication and migration share it.
func SendSnapshot(conn net.Conn, chunk, end byte, data []byte, timeout time.Duration) error {
	for off := 0; off < len(data); off += snapChunkSize {
		_ = conn.SetDeadline(time.Now().Add(timeout))
		if err := wire.WriteOpaque(conn, chunk, data[off:min(off+snapChunkSize, len(data))]); err != nil {
			return err
		}
	}
	_ = conn.SetDeadline(time.Now().Add(timeout))
	return wire.WriteOpaque(conn, end, nil)
}

// ReceiveSnapshot is the inverse of SendSnapshot: it reads chunk frames up
// to the end frame and returns exactly dataLen bytes.  The snapshot grows
// as chunks arrive — an announced length is the peer's claim, not an
// allocation — and one that overruns or falls short of dataLen is a
// CodeProto error.
func ReceiveSnapshot(conn net.Conn, br *bufio.Reader, buf *[]byte, chunk, end byte, dataLen uint64, timeout time.Duration) ([]byte, error) {
	var snap []byte
	for {
		_ = conn.SetDeadline(time.Now().Add(timeout))
		typ, payload, err := wire.ReadOpaque(br, buf)
		if err != nil {
			return nil, err
		}
		switch {
		case typ == end && uint64(len(snap)) == dataLen:
			return snap, nil
		case typ == end:
			return nil, linkErrf(CodeProto, "snapshot %d bytes, announced %d", len(snap), dataLen)
		case typ != chunk:
			return nil, linkErrf(CodeProto, "want snapshot chunk, got frame type %d", typ)
		case uint64(len(snap)+len(payload)) > dataLen:
			return nil, linkErrf(CodeProto, "snapshot overruns announced length %d", dataLen)
		}
		snap = append(snap, payload...)
	}
}

func helloPayload(lastSeq uint64) []byte {
	buf := make([]byte, 0, 9)
	buf = append(buf, protocolVersion)
	return binary.LittleEndian.AppendUint64(buf, lastSeq)
}

func decodeHello(p []byte) (version byte, lastSeq uint64, err error) {
	if len(p) != 9 {
		return 0, 0, linkErrf(CodeProto, "hello payload %d bytes, want 9", len(p))
	}
	return p[0], binary.LittleEndian.Uint64(p[1:]), nil
}

func snapBeginPayload(snapSeq, dataLen, walBytes uint64) []byte {
	buf := make([]byte, 0, 24)
	buf = binary.LittleEndian.AppendUint64(buf, snapSeq)
	buf = binary.LittleEndian.AppendUint64(buf, dataLen)
	return binary.LittleEndian.AppendUint64(buf, walBytes)
}

func decodeSnapBegin(p []byte) (snapSeq, dataLen, walBytes uint64, err error) {
	if len(p) != 24 {
		return 0, 0, 0, linkErrf(CodeProto, "snap-begin payload %d bytes, want 24", len(p))
	}
	snapSeq = binary.LittleEndian.Uint64(p[0:8])
	dataLen = binary.LittleEndian.Uint64(p[8:16])
	walBytes = binary.LittleEndian.Uint64(p[16:24])
	if dataLen > maxSnapshotBytes {
		return 0, 0, 0, linkErrf(CodeProto, "snapshot length %d exceeds cap", dataLen)
	}
	return snapSeq, dataLen, walBytes, nil
}

// RecordPayload lays out one shipped WAL record — the fRecord payload
// here and the migration stream's delta payload.
func RecordPayload(seq uint64, rectype byte, rec []byte) []byte {
	buf := make([]byte, 0, 9+len(rec))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = append(buf, rectype)
	return append(buf, rec...)
}

// DecodeRecord is the inverse of RecordPayload.  rec aliases p.
func DecodeRecord(p []byte) (seq uint64, rectype byte, rec []byte, err error) {
	if len(p) < 9 {
		return 0, 0, nil, linkErrf(CodeProto, "record payload %d bytes, want ≥ 9", len(p))
	}
	return binary.LittleEndian.Uint64(p[0:8]), p[8], p[9:], nil
}

// U64Payload lays out a frame carrying one sequence number or epoch.
func U64Payload(v uint64) []byte {
	return binary.LittleEndian.AppendUint64(make([]byte, 0, 8), v)
}

// DecodeU64 is the inverse of U64Payload; what names the frame in errors.
func DecodeU64(p []byte, what string) (uint64, error) {
	if len(p) != 8 {
		return 0, linkErrf(CodeProto, "%s payload %d bytes, want 8", what, len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

func heartbeatPayload(primarySeq, walBytes uint64) []byte {
	buf := make([]byte, 0, 16)
	buf = binary.LittleEndian.AppendUint64(buf, primarySeq)
	return binary.LittleEndian.AppendUint64(buf, walBytes)
}

func decodeHeartbeat(p []byte) (primarySeq, walBytes uint64, err error) {
	if len(p) != 16 {
		return 0, 0, linkErrf(CodeProto, "heartbeat payload %d bytes, want 16", len(p))
	}
	return binary.LittleEndian.Uint64(p[0:8]), binary.LittleEndian.Uint64(p[8:16]), nil
}

func traceMarkPayload(seq uint64, traceCtx string) []byte {
	buf := make([]byte, 0, 8+len(traceCtx))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	return append(buf, traceCtx...)
}

func decodeTraceMark(p []byte) (seq uint64, traceCtx string, err error) {
	if len(p) < 8 {
		return 0, "", linkErrf(CodeProto, "trace-mark payload %d bytes, want ≥ 8", len(p))
	}
	return binary.LittleEndian.Uint64(p[0:8]), string(p[8:]), nil
}

// ErrorPayload lays out a structured link error: code(str16) message(rest).
func ErrorPayload(code, msg string) []byte {
	if len(code) > 0xFFFF {
		code = code[:0xFFFF]
	}
	buf := make([]byte, 0, 2+len(code)+len(msg))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(code)))
	buf = append(buf, code...)
	return append(buf, msg...)
}

// DecodeError is the inverse of ErrorPayload.
func DecodeError(p []byte) (*LinkError, error) {
	if len(p) < 2 {
		return nil, linkErrf(CodeProto, "error payload %d bytes, want ≥ 2", len(p))
	}
	n := int(binary.LittleEndian.Uint16(p[0:2]))
	if len(p) < 2+n {
		return nil, linkErrf(CodeProto, "error code truncated")
	}
	return &LinkError{Code: string(p[2 : 2+n]), Msg: string(p[2+n:])}, nil
}
