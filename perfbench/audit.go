package main

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"xorpuf/internal/registry"
)

// walFile is the registry's journal file name inside its directory.
const walFile = "registry.wal"

// journalRecord is one WAL record kept for the prefix comparison.
type journalRecord struct {
	typ     byte
	payload []byte
}

// auditJournals replays the primary's and the follower's WALs after a
// durable run and checks the never-reuse rule end to end: no chip was
// issued the same challenge word twice, the follower's journal is a prefix
// of the primary's, and the primary burned exactly the words the protocol
// specifies for the ops the clients ran.  It stops the follower so its journal is quiescent.
func (d *deployment) auditJournals(wantBurned int) error {
	// Verdict and health records trail the quorum-gated burns; let the
	// follower apply everything before comparing.
	deadline := time.Now().Add(10 * time.Second)
	for d.freg.Seq() < d.reg.Seq() {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at seq %d, primary at %d", d.freg.Seq(), d.reg.Seq())
		}
		time.Sleep(time.Millisecond)
	}
	if d.stopFollower != nil {
		d.stopFollower()
		<-d.followerDone
		d.stopFollower = nil
	}

	type chipWord struct {
		chip string
		word uint64
	}
	issued := make(map[chipWord]struct{})
	primary := make(map[uint64]journalRecord)
	var last uint64
	burned := 0
	err := registry.IterateWAL(filepath.Join(d.dir, "primary", walFile), func(seq uint64, typ byte, p []byte) error {
		primary[seq] = journalRecord{typ: typ, payload: bytes.Clone(p)}
		last = seq
		id, words, fresh, ok := registry.RecordIssuedWords(typ, p)
		if !ok || !fresh {
			return nil
		}
		for _, w := range words {
			k := chipWord{id, w}
			if _, dup := issued[k]; dup {
				return fmt.Errorf("chip %s was issued challenge word %#x twice (seq %d)", id, w, seq)
			}
			issued[k] = struct{}{}
		}
		burned += len(words)
		return nil
	})
	if err != nil {
		return fmt.Errorf("primary journal: %w", err)
	}
	if burned != wantBurned {
		return fmt.Errorf("primary journal burned %d challenge words, the protocol specifies %d for the ops run", burned, wantBurned)
	}

	// The follower bootstrapped from a snapshot, so its WAL starts after
	// the snapshot cut; from there it must match the primary record for
	// record, with no gaps.
	var prev uint64
	n := 0
	err = registry.IterateWAL(filepath.Join(d.dir, "follower", walFile), func(seq uint64, typ byte, p []byte) error {
		if n > 0 && seq != prev+1 {
			return fmt.Errorf("follower journal jumps from seq %d to %d", prev, seq)
		}
		want, ok := primary[seq]
		if !ok || want.typ != typ || !bytes.Equal(want.payload, p) {
			return fmt.Errorf("follower record seq %d differs from the primary's", seq)
		}
		prev = seq
		n++
		return nil
	})
	if err != nil {
		return fmt.Errorf("follower journal: %w", err)
	}
	if n == 0 {
		return errors.New("follower journal is empty")
	}
	if prev != last {
		return fmt.Errorf("follower journal ends at seq %d, primary at %d", prev, last)
	}
	return nil
}
