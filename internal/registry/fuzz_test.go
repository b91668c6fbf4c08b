package registry

import (
	"bytes"
	"testing"

	"xorpuf/internal/core"
	"xorpuf/internal/health"
	"xorpuf/internal/rng"
)

// fuzzModel builds a tiny but well-formed chip model for seed payloads.
func fuzzModel() *core.ChipModel {
	return &core.ChipModel{
		Beta0: 1, Beta1: 1,
		PUFs: []*core.PUFModel{
			{Theta: []float64{0.1, -0.2, 0.3}, Thr0: 0.4, Thr1: 0.6},
			{Theta: []float64{-0.3, 0.2, -0.1}, Thr0: 0.4, Thr1: 0.6},
		},
	}
}

// FuzzWALRecord drives the one record decoder with adversarial payloads of
// every type, differentially against the follower path: a payload
// decodeRecord refuses must also be refused by ApplyReplicated at Seq()+1
// with Seq unchanged (a malformed record never enters the log), one it
// accepts must journal and apply, and nothing may panic.
func FuzzWALRecord(f *testing.F) {
	model := fuzzModel()
	burn := burnPayload("chip-0", 7, 9)
	arriving := record{typ: recMigrateIn, id: "chip-1", budget: 64, words: []uint64{3, 5}, model: model,
		denials: 1, health: health.TrackerState{State: health.Degraded, Sessions: 4},
		mig: "mig-0", lo: "chip-1", hi: "chip-2"}
	fence := record{typ: recRangeFence, mig: "mig-0", lo: "chip-0", hi: "chip-1", mode: fenceSet}
	cutover := record{typ: recCutover, mig: "mig-0", epoch: 3, lo: "chip-0", hi: "chip-1",
		mode: cutoverSource, redirect: "10.0.0.2:7413"}
	f.Add(recRegister, registerPayload("chip-0", 64, model))
	f.Add(recIssued, burn)
	f.Add(recAbuse, abusePayload("chip-0", 3, true))
	f.Add(recDeregister, appendString(nil, "chip-0"))
	f.Add(recHealth, healthPayload("chip-0", health.TrackerState{State: health.Degraded, FailEWMA: 0.5}))
	f.Add(recReenroll, registerPayload("chip-0", 64, model))
	f.Add(recKeyIssued, burn)
	f.Add(recRangeFence, fencePayload(fence))
	fence.mode = fenceClear
	f.Add(recRangeFence, fencePayload(fence))
	f.Add(recMigrateIn, migrateInPayload(arriving))
	f.Add(recCutover, cutoverPayload(cutover))
	cutover.mode, cutover.redirect = cutoverTarget, ""
	f.Add(recCutover, cutoverPayload(cutover))
	f.Add(recMigrateAbort, appendString(nil, "mig-0"))
	f.Add(recMigratedBurn, burn)
	f.Add(recMigrateRange, migrateRangePayload(fence))
	f.Add(byte(0), []byte{})
	f.Add(byte(255), bytes.Repeat([]byte{0xff}, 64))
	// A register record claiming an enormous geometry on a short payload.
	f.Add(recRegister, append(appendString(nil, "x"), 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff))

	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		reg, err := Open("", Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		// Pre-register one chip so ID-matching record types exercise their
		// mutate-an-entry paths, not just the unknown-ID early returns.
		if err := reg.Register("chip-0", fuzzModel(), 64); err != nil {
			t.Fatal(err)
		}
		_, derr := decodeRecord(typ, payload)
		seq := reg.Seq()
		aerr := reg.ApplyReplicated(seq+1, typ, payload)
		switch {
		case derr != nil && aerr == nil:
			t.Fatalf("decoder refused type %d (%v), ApplyReplicated accepted it", typ, derr)
		case derr != nil && reg.Seq() != seq:
			t.Fatalf("refused type %d record moved Seq from %d to %d", typ, seq, reg.Seq())
		case derr == nil && aerr != nil:
			t.Fatalf("decoder accepted type %d, ApplyReplicated refused it: %v", typ, aerr)
		}
	})
}

// FuzzSelectorState drives the selector-state decoder, then checks that any
// state it accepts round-trips through a live Selector: import → export must
// preserve the used-challenge set (deduplicated and sorted) and the budget,
// because that set IS the never-reuse guarantee.
func FuzzSelectorState(f *testing.F) {
	f.Add(appendSelectorState(nil, core.SelectorState{Budget: 10, Used: []uint64{1, 2, 99}}))
	f.Add(appendSelectorState(nil, core.SelectorState{}))
	// Claimed count far beyond the payload.
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rd := &reader{b: data}
		st := rd.readSelectorState()
		if rd.err != nil {
			return
		}
		sel := core.NewSelector(fuzzModel(), rng.New(1))
		sel.ImportState(st)
		out := sel.ExportState()
		want := make(map[uint64]struct{}, len(st.Used))
		for _, w := range st.Used {
			want[w] = struct{}{}
		}
		if len(out.Used) != len(want) {
			t.Fatalf("round-trip lost words: imported %d distinct, exported %d", len(want), len(out.Used))
		}
		for _, w := range out.Used {
			if _, ok := want[w]; !ok {
				t.Fatalf("exported word %d was never imported", w)
			}
		}
		wantBudget := st.Budget
		if wantBudget < 0 {
			wantBudget = 0
		}
		if out.Budget != wantBudget {
			t.Fatalf("budget %d round-tripped to %d", st.Budget, out.Budget)
		}
	})
}
