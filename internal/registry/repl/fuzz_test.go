package repl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"xorpuf/internal/registry"
	"xorpuf/internal/wire"
)

// seedFrames builds a corpus of well-formed link traffic in internal/wire
// frames: a full session's worth of handshake, snapshot, record, and
// control frames, with the record and snapshot bytes captured from a live
// registry so the decoders see realistic payloads, not just hand-rolled
// ones.
func seedFrames(f *testing.F) {
	reg, err := registry.Open("", registry.Options{Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	defer reg.Close()
	var records [][]byte
	reg.AddAppendObserver(func(seq uint64, typ byte, payload []byte) {
		records = append(records, wire.AppendOpaque(nil, fRecord, RecordPayload(seq, typ, payload)))
	})
	if err := reg.Register("chip-0", syntheticModel(2, 16), 64); err != nil {
		f.Fatal(err)
	}
	e := reg.Lookup("chip-0")
	if _, _, err := e.Issue(3, 0); err != nil {
		f.Fatal(err)
	}
	e.Verdict(false, 2)
	reg.Deregister("chip-0")
	snap, snapSeq, err := reg.SnapshotBytes()
	if err != nil {
		f.Fatal(err)
	}

	f.Add(wire.AppendOpaque(nil, fHello, helloPayload(0)))
	f.Add(wire.AppendOpaque(nil, fSnapBegin, snapBeginPayload(snapSeq, uint64(len(snap)), 4096)))
	f.Add(wire.AppendOpaque(nil, fSnapChunk, snap))
	f.Add(wire.AppendOpaque(nil, fSnapEnd, nil))
	f.Add(wire.AppendOpaque(nil, fAck, U64Payload(7)))
	f.Add(wire.AppendOpaque(nil, fHeartbeat, heartbeatPayload(9, 1<<20)))
	f.Add(wire.AppendOpaque(nil, fError, ErrorPayload(CodeApply, "wal append failed")))
	for _, rec := range records {
		f.Add(rec)
	}
	// One whole session on the wire: snapshot phase then the record tail.
	stream := wire.AppendOpaque(nil, fSnapBegin, snapBeginPayload(0, uint64(len(snap)), 0))
	stream = append(stream, wire.AppendOpaque(nil, fSnapChunk, snap)...)
	stream = append(stream, wire.AppendOpaque(nil, fSnapEnd, nil)...)
	for _, rec := range records {
		stream = append(stream, rec...)
	}
	f.Add(stream)
	// Degenerate inputs.
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// A header declaring a ~2 GiB record: refused by the payload cap.
	f.Add([]byte{wire.Magic, fRecord, 0, 0xff, 0xff, 0xff, 0x7f})
	// A CRC-valid record frame whose 10-byte stream id overflows uint64.
	bad := append([]byte{wire.Magic, fRecord}, bytes.Repeat([]byte{0xff}, 9)...)
	bad = append(bad, 0x02, 0, 0, 0, 0)
	f.Add(binary.LittleEndian.AppendUint32(bad, crc32.ChecksumIEEE(bad)))
}

// FuzzReplStream drives the replication stream decoder — the wire frame
// reader, per-type payload decoders, snapshot install, and replicated
// record apply — with adversarial byte streams.  The invariant mirrors the
// follower's degrade-never-fork contract: garbage must surface as an error
// (dropping the link), never as a panic, a giant allocation, or a state
// change that skips sequence numbers.
func FuzzReplStream(f *testing.F) {
	seedFrames(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		reg, err := registry.Open("", registry.Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		var snap []byte
		var snapLen uint64
		for {
			typ, payload, err := wire.ReadOpaque(br, &buf)
			if err != nil {
				return // torn or corrupt stream: the link would drop here
			}
			switch typ {
			case fHello:
				_, _, _ = decodeHello(payload)
			case fSnapBegin:
				_, snapLen, _, _ = decodeSnapBegin(payload)
				snap = nil
			case fSnapChunk:
				if uint64(len(snap)+len(payload)) > snapLen || len(snap)+len(payload) > 1<<22 {
					return
				}
				snap = append(snap, payload...)
			case fSnapEnd:
				_ = reg.InstallSnapshot(snap) // must not panic, corrupt or not
			case fRecord:
				seq, rectype, rec, err := DecodeRecord(payload)
				if err != nil {
					return
				}
				before := reg.Seq()
				if aerr := reg.ApplyReplicated(seq, rectype, rec); aerr != nil {
					if got := reg.Seq(); got != before {
						t.Fatalf("failed apply moved seq %d → %d", before, got)
					}
					return
				}
				if got := reg.Seq(); got != before+1 {
					t.Fatalf("apply moved seq %d → %d, want +1", before, got)
				}
			case fAck:
				_, _ = DecodeU64(payload, "ack")
			case fHeartbeat:
				_, _, _ = decodeHeartbeat(payload)
			case fError:
				_, _ = DecodeError(payload)
			}
		}
	})
}
