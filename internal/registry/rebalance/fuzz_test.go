package rebalance

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"xorpuf/internal/registry"
	"xorpuf/internal/registry/repl"
	"xorpuf/internal/wire"
)

// seedMigrationFrames builds a corpus of internal/wire frames from a real
// migration's traffic: an XPR1 range snapshot and live delta records
// captured from a live source registry, so the decoders see realistic
// payloads alongside the degenerate hand-rolled ones.
func seedMigrationFrames(f *testing.F) {
	src, err := registry.Open("", registry.Options{Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	defer src.Close()
	var deltas [][]byte
	src.AddAppendObserver(func(seq uint64, typ byte, payload []byte) {
		if registry.RecordChipID(typ, payload) != "" {
			deltas = append(deltas, wire.AppendOpaque(nil, mDelta, repl.RecordPayload(seq, typ, payload)))
		}
	})
	if err := src.Register("chip-0", syntheticModel(2, 16), 64); err != nil {
		f.Fatal(err)
	}
	e := src.Lookup("chip-0")
	if _, _, err := e.Issue(3, 0); err != nil {
		f.Fatal(err)
	}
	e.Verdict(false, 2)
	snap, cutSeq, count, err := src.RangeSnapshot("chip-0", "chip-1")
	if err != nil {
		f.Fatal(err)
	}

	f.Add(wire.AppendOpaque(nil, mHello, helloPayload(1, "mig-f", "chip-0", "chip-1")))
	f.Add(wire.AppendOpaque(nil, mHelloAck, helloAckPayload(helloFresh, 0)))
	f.Add(wire.AppendOpaque(nil, mHelloAck, helloAckPayload(helloCutover, 3)))
	f.Add(wire.AppendOpaque(nil, mSnapBegin, snapBeginPayload(cutSeq, uint64(len(snap)), uint32(count))))
	f.Add(wire.AppendOpaque(nil, mSnapChunk, snap))
	f.Add(wire.AppendOpaque(nil, mSnapEnd, nil))
	f.Add(wire.AppendOpaque(nil, mDeltaAck, repl.U64Payload(7)))
	f.Add(wire.AppendOpaque(nil, mCutover, repl.U64Payload(cutSeq)))
	f.Add(wire.AppendOpaque(nil, mCutoverAck, repl.U64Payload(2)))
	f.Add(wire.AppendOpaque(nil, mAbort, []byte("operator abort")))
	f.Add(wire.AppendOpaque(nil, mError, repl.ErrorPayload(CodeApply, "wal append failed")))
	for _, d := range deltas {
		f.Add(d)
	}
	// One whole session on the wire: hello, snapshot, deltas, cutover.
	stream := wire.AppendOpaque(nil, mHello, helloPayload(1, "mig-f", "chip-0", "chip-1"))
	stream = append(stream, wire.AppendOpaque(nil, mSnapBegin, snapBeginPayload(cutSeq, uint64(len(snap)), uint32(count)))...)
	stream = append(stream, wire.AppendOpaque(nil, mSnapChunk, snap)...)
	stream = append(stream, wire.AppendOpaque(nil, mSnapEnd, nil)...)
	for _, d := range deltas {
		stream = append(stream, d...)
	}
	stream = append(stream, wire.AppendOpaque(nil, mCutover, repl.U64Payload(cutSeq))...)
	f.Add(stream)
	// Degenerate inputs.
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// A header declaring a ~2 GiB delta: refused by the payload cap.
	f.Add([]byte{wire.Magic, mDelta, 0, 0xff, 0xff, 0xff, 0x7f})
	// A CRC-valid delta frame whose 10-byte stream id overflows uint64.
	bad := append([]byte{wire.Magic, mDelta}, bytes.Repeat([]byte{0xff}, 9)...)
	bad = append(bad, 0x02, 0, 0, 0, 0)
	f.Add(binary.LittleEndian.AppendUint32(bad, crc32.ChecksumIEEE(bad)))
}

// FuzzRebalanceStream drives the acceptor-side decoding path — the wire
// frame reader, per-type payload decoders, XPR1 snapshot install, and
// migrated-delta apply — with adversarial byte streams.  The contract mirrors the acceptor's
// fail-closed posture: garbage must surface as an error that drops the
// session, never a panic, a giant allocation, or arriving chips installed
// from a snapshot that did not validate.
func FuzzRebalanceStream(f *testing.F) {
	seedMigrationFrames(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		reg, err := registry.Open("", registry.Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		migID, lo, hi := "mig-f", "chip-0", "chip-1"
		var snap []byte
		var snapLen uint64
		for {
			typ, payload, err := wire.ReadOpaque(br, &buf)
			if err != nil {
				return // torn or corrupt stream: the session would drop here
			}
			switch typ {
			case mHello:
				if _, _, m, l, h, err := decodeHello(payload); err == nil && m != "" {
					migID, lo, hi = m, l, h
				}
			case mHelloAck:
				_, _, _ = decodeHelloAck(payload)
			case mSnapBegin:
				_, snapLen, _, _ = decodeSnapBegin(payload)
				snap = nil
			case mSnapChunk:
				if uint64(len(snap)+len(payload)) > snapLen || len(snap)+len(payload) > 1<<22 {
					return
				}
				snap = append(snap, payload...)
			case mSnapEnd:
				_, _ = reg.InstallMigrating(migID, lo, hi, snap) // must not panic, corrupt or not
			case mDelta:
				_, rectype, rec, err := repl.DecodeRecord(payload)
				if err != nil {
					return
				}
				_, _ = reg.ApplyMigrated(migID, rectype, rec)
			case mDeltaAck, mCutoverAck:
				_, _ = repl.DecodeU64(payload, "ack")
			case mCutover:
				if _, err := repl.DecodeU64(payload, "cutover"); err != nil {
					return
				}
				_, _ = reg.CutoverTarget(migID, reg.OwnershipEpoch()+1)
			case mAbort:
				_ = reg.AbortMigrationIn(migID)
			case mError:
				_, _ = repl.DecodeError(payload)
			}
		}
	})
}
