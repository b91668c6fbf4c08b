// Package rebalance moves a contiguous chip range between shard owners while
// issuance continues everywhere else — the live-topology half of the paper's
// never-reuse rule.  PR 2 made burned-challenge history survive kill -9 and
// PR 6 made it survive node loss; this package makes it survive *ownership
// change*: a migration that forked or replayed the used-challenge sets would
// hand identical CRPs to two servers, exactly the reuse the Fig 7 protocol
// exists to prevent.
//
// Protocol: the source dials the target's acceptor.  Frames are
// internal/wire opaque frames in the type range 0x10–0x1A, disjoint from
// netauth's and repl's, so a mis-wired link fails the type check instead of
// being misinterpreted.  The payloads are:
//
//	mHello      s→t  version(1) epoch(u64) migID(str) lo(str) hi(str)
//	mHelloAck   t→s  state(u8: 0 fresh / 1 already-cut-over) epoch(u64)
//	mSnapBegin  s→t  cutSeq(u64) dataLen(u64) count(u32)
//	mSnapChunk  s→t  raw XPR1 range-snapshot bytes
//	mSnapEnd    s→t  (empty)
//	mDelta      s→t  srcSeq(u64) rectype(1) payload  (one live WAL record)
//	mDeltaAck   t→s  srcSeq(u64)   (sent only after the target journaled it)
//	mCutover    s→t  finalSeq(u64)
//	mCutoverAck t→s  epoch(u64)    (sent only after the target's cutover
//	                                record is journaled and quorum-acked)
//	mAbort      s→t  reason(rest)
//	mError      ↔    code(str16) message(rest)
//
// mDelta, the u64 frames and mError use the replication stream's layouts
// (repl.RecordPayload, repl.U64Payload, repl.ErrorPayload): one copy of each.
//
// A session is: hello → (already-cut-over shortcut, or) snapshot → live
// delta tail → fence on the source → final drain → cutover.  Everything is
// restartable: the hello exchange tells a reconnecting source whether the
// target's cutover record won (the source then finalizes its own side) or
// the stream must restart from a fresh snapshot (reinstalling arriving
// chips idempotently — the source stays authoritative until cutover).
package rebalance

import (
	"encoding/binary"
	"fmt"
)

// protocolVersion 2 is the first on internal/wire framing: a version-1
// peer's frames fail at their first byte, which is not wire.Magic.
const protocolVersion = 2

// Frame types, in a range disjoint from netauth's (0x01–0x0C) and repl's
// (0x20–0x28).
const (
	mHello      byte = 16
	mHelloAck   byte = 17
	mSnapBegin  byte = 18
	mSnapChunk  byte = 19
	mSnapEnd    byte = 20
	mDelta      byte = 21
	mDeltaAck   byte = 22
	mCutover    byte = 23
	mCutoverAck byte = 24
	mAbort      byte = 25
	mError      byte = 26
)

// Hello-ack states.
const (
	helloFresh   byte = 0
	helloCutover byte = 1
)

// maxSnapshotBytes bounds an advertised range-snapshot transfer.
const maxSnapshotBytes = 1 << 32

// Error codes carried in mError frames.
const (
	CodeProto    = "proto"    // malformed or unexpected frame
	CodeApply    = "apply"    // target could not journal/apply
	CodeQuorum   = "quorum"   // target cutover could not reach its follower quorum
	CodeAborted  = "aborted"  // migration aborted by the peer
	CodeShutdown = "shutdown" // orderly close
)

// MigError is the structured error that ends a migration session attempt.
type MigError struct {
	Code string
	Msg  string
}

func (e *MigError) Error() string { return "rebalance: " + e.Code + ": " + e.Msg }

func migErrf(code, format string, args ...interface{}) *MigError {
	return &MigError{Code: code, Msg: fmt.Sprintf(format, args...)}
}

func appendStr(b []byte, s string) []byte {
	if len(s) > 0xFFFF {
		s = s[:0xFFFF]
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func helloPayload(epoch uint64, migID, lo, hi string) []byte {
	b := []byte{protocolVersion}
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = appendStr(b, migID)
	b = appendStr(b, lo)
	return appendStr(b, hi)
}

func decodeHello(p []byte) (version byte, epoch uint64, migID, lo, hi string, err error) {
	bad := migErrf(CodeProto, "malformed hello payload")
	if len(p) < 9 {
		return 0, 0, "", "", "", bad
	}
	version, epoch, p = p[0], binary.LittleEndian.Uint64(p[1:9]), p[9:]
	var strs [3]string // migID, lo, hi
	for i := range strs {
		if len(p) < 2 || len(p) < 2+int(binary.LittleEndian.Uint16(p)) {
			return 0, 0, "", "", "", bad
		}
		n := 2 + int(binary.LittleEndian.Uint16(p))
		strs[i], p = string(p[2:n]), p[n:]
	}
	if len(p) != 0 {
		return 0, 0, "", "", "", bad
	}
	return version, epoch, strs[0], strs[1], strs[2], nil
}

func helloAckPayload(state byte, epoch uint64) []byte {
	b := []byte{state}
	return binary.LittleEndian.AppendUint64(b, epoch)
}

func decodeHelloAck(p []byte) (state byte, epoch uint64, err error) {
	if len(p) != 9 {
		return 0, 0, migErrf(CodeProto, "hello-ack payload %d bytes, want 9", len(p))
	}
	if p[0] != helloFresh && p[0] != helloCutover {
		return 0, 0, migErrf(CodeProto, "unknown hello-ack state %d", p[0])
	}
	return p[0], binary.LittleEndian.Uint64(p[1:]), nil
}

func snapBeginPayload(cutSeq, dataLen uint64, count uint32) []byte {
	b := binary.LittleEndian.AppendUint64(nil, cutSeq)
	b = binary.LittleEndian.AppendUint64(b, dataLen)
	return binary.LittleEndian.AppendUint32(b, count)
}

func decodeSnapBegin(p []byte) (cutSeq, dataLen uint64, count uint32, err error) {
	if len(p) != 20 {
		return 0, 0, 0, migErrf(CodeProto, "snap-begin payload %d bytes, want 20", len(p))
	}
	dataLen = binary.LittleEndian.Uint64(p[8:16])
	if dataLen > maxSnapshotBytes {
		return 0, 0, 0, migErrf(CodeProto, "snapshot length %d exceeds cap", dataLen)
	}
	return binary.LittleEndian.Uint64(p[0:8]), dataLen, binary.LittleEndian.Uint32(p[16:20]), nil
}
