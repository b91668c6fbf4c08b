package main

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"xorpuf/internal/challenge"
	"xorpuf/internal/core"
	"xorpuf/internal/silicon"
)

// Small fleets keep these tests to seconds; one client keeps them honest
// on a single CPU.
var (
	tinyMem     = workload{name: "tiny-mem", width: 4, chips: 2, batch: 1, clients: 1}
	tinyDurable = workload{name: "tiny-durable", width: 4, chips: 2, durable: true, keyexEvery: 3, batch: 1, clients: 1}
	tinyBatch   = workload{name: "tiny-batch", width: 4, chips: 2, batch: 4, clients: 1}
)

// flipDevice answers like the chip it wraps except that the first response
// of every session comes back inverted: one bit of Hamming distance per
// session.
type flipDevice struct {
	dev   core.Device
	reads int
}

func (f *flipDevice) ReadXOR(c challenge.Challenge, cond silicon.Condition) uint8 {
	b := f.dev.ReadXOR(c, cond)
	if f.reads%challengesPerSession == 0 {
		b ^= 1
	}
	f.reads++
	return b
}

func mustSetup(t *testing.T, wl workload, seed uint64) *deployment {
	t.Helper()
	d, err := setup(wl, seed)
	if err != nil {
		t.Fatalf("setup %s: %v", wl.name, err)
	}
	t.Cleanup(d.close)
	return d
}

// A device that is one bit off per session must show up as failed ops and
// an incorrect run, never as a faster one.
func TestNegativeControlFlippedBit(t *testing.T) {
	d := mustSetup(t, tinyMem, 1)
	for i, dev := range d.devices {
		d.devices[i] = &flipDevice{dev: dev}
	}
	pr := d.runPhase(500*time.Millisecond, false)
	if pr.attempted == 0 {
		t.Fatal("no ops attempted")
	}
	if got := pr.endToEnd()["fail_ratio"]; got != 1 {
		t.Errorf("fail_ratio = %v, want 1: every session carries a flipped bit", got)
	}
	if pr.completed != 0 {
		t.Errorf("%d sessions completed despite a flipped bit", pr.completed)
	}
	if res := newResult(&pr.tally, nil, io.Discard); res.Correct {
		t.Error("run with denied sessions reported correct")
	}
}

// The durable journal audit passes on a clean run with key exchanges and
// fails when the burned-word count does not match what the protocol
// specifies for the ops run.
func TestDurableJournalAudit(t *testing.T) {
	d := mustSetup(t, tinyDurable, 1)
	pr := d.runPhase(time.Second, false)
	if pr.failed != 0 {
		t.Fatalf("%d of %d ops failed: %v", pr.failed, pr.attempted, pr.firstErr)
	}
	if len(pr.keyexLat) == 0 {
		t.Fatal("no key exchange ran")
	}
	if err := d.audit(pr.wantBurned() + 1); err == nil {
		t.Error("audit accepted a burned-word count one off from the journal")
	}
	if err := d.audit(pr.wantBurned()); err != nil {
		t.Errorf("audit of a clean run: %v", err)
	}
}

// Every seed runs clean, including pipelined batches.
func TestSeedsRunClean(t *testing.T) {
	for _, wl := range []workload{tinyMem, tinyBatch} {
		for _, seed := range []uint64{1, 2} {
			d := mustSetup(t, wl, seed)
			pr := d.runPhase(300*time.Millisecond, false)
			if pr.failed != 0 || pr.completed == 0 {
				t.Errorf("%s seed %d: %d of %d ops failed: %v", wl.name, seed, pr.failed, pr.attempted, pr.firstErr)
			}
		}
	}
}

func withWorkloads(t *testing.T, extra ...workload) {
	t.Helper()
	saved := workloads
	workloads = append(append([]workload(nil), workloads...), extra...)
	t.Cleanup(func() { workloads = saved })
}

// A workload with more client connections than CPUs is refused without a
// result line.
func TestRefusesMoreClientsThanCPUs(t *testing.T) {
	wide := tinyMem
	wide.name, wide.clients = "wide", runtime.NumCPU()+1
	withWorkloads(t, wide)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "wide"}, &stdout, &stderr); code == 0 {
		t.Fatalf("exit code 0 for %d clients on %d CPUs", wide.clients, runtime.NumCPU())
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("refused run printed a result: %s", stdout.String())
	}
}

// The last line of standard output is the result object with every
// end-to-end metric (trace 0) or every per-layer metric (trace 1).
func TestResultLine(t *testing.T) {
	withWorkloads(t, tinyDurable)
	for _, tc := range []struct {
		trace string
		specs []metricSpec
	}{{"0", endToEndSpecs}, {"1", perLayerSpecs}} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", tinyDurable.name, "--seed", "3", "--seconds", "0.6", "--trace", tc.trace}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", tc.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not a result: %v", tc.trace, err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("trace %s: result %+v", tc.trace, res)
		}
		if len(res.Metrics) != len(tc.specs) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(res.Metrics), len(tc.specs))
		}
		for _, s := range tc.specs {
			if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", tc.trace, s.name, m, s.unit)
			}
		}
	}
}
