package netauth

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"xorpuf/internal/challenge"
	"xorpuf/internal/health"
	"xorpuf/internal/silicon"
)

// oneDevice answers 1 to every challenge — every response mismatches
// flatModel's all-zero predictions, modeling a chip that has drifted
// completely out of its enrolled model.
type oneDevice struct{}

func (oneDevice) ReadXOR(challenge.Challenge, silicon.Condition) uint8 { return 1 }

// TestDriftQuarantineLifecycle drives a drifted chip through the full
// detector lifecycle over the wire: sustained mismatching sessions degrade
// then quarantine it (events surfacing through SetHealthHandler), the
// quarantine denial is structured, terminal, and burns no challenges, and a
// registry.Replace re-admits the chip at zero HD.
func TestDriftQuarantineLifecycle(t *testing.T) {
	srv := NewServer(10, 91)
	if err := srv.Register("drifter", flatModel()); err != nil {
		t.Fatal(err)
	}
	var evMu sync.Mutex
	var events []health.Event
	srv.SetHealthHandler(func(ev health.Event) {
		evMu.Lock()
		events = append(events, ev)
		evMu.Unlock()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()
	addr := ln.Addr().String()

	// Fail sessions until the detectors quarantine the chip.
	for i := 0; i < 30; i++ {
		res, err := authOnce(addr, "drifter", oneDevice{}, silicon.Nominal, 5*time.Second)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if res.Approved {
			t.Fatalf("session %d approved with an all-mismatch device", i)
		}
		if srv.ChipStatus("drifter").Health == health.Quarantined {
			break
		}
	}
	if got := srv.ChipStatus("drifter").Health; got != health.Quarantined {
		t.Fatalf("chip health %v after sustained drift, want quarantined", got)
	}
	evMu.Lock()
	if len(events) != 2 || events[0].To != health.Degraded || events[1].To != health.Quarantined {
		t.Fatalf("health handler saw %v, want degrade then quarantine", events)
	}
	evMu.Unlock()

	// Quarantined denial: structured, terminal, and challenge-free.
	burned := srv.ChipStatus("drifter").Issued
	_, err = authOnce(addr, "drifter", oneDevice{}, silicon.Nominal, 5*time.Second)
	var perr *ProtocolError
	if !errors.As(err, &perr) || perr.Code != CodeQuarantined {
		t.Fatalf("quarantined auth err = %v, want %s", err, CodeQuarantined)
	}
	if perr.Retryable {
		t.Error("quarantined denial marked retryable")
	}
	if got := srv.ChipStatus("drifter").Issued; got != burned {
		t.Errorf("quarantined attempt burned %d challenges", got-burned)
	}
	// Even a device that would now answer correctly is refused — the
	// acceptance path is closed, not loosened.
	if _, err := authOnce(addr, "drifter", zeroDevice{}, silicon.Nominal, 5*time.Second); !errors.As(err, &perr) || perr.Code != CodeQuarantined {
		t.Fatalf("good-device auth err = %v, want %s", err, CodeQuarantined)
	}

	// Re-enrollment: swap in a fresh model, detectors reset, chip serves
	// again at zero HD.
	if err := srv.Registry().Replace("drifter", flatModel(), 0); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	if got := srv.ChipStatus("drifter").Health; got != health.Healthy {
		t.Fatalf("post-replace health %v, want healthy", got)
	}
	res, err := authOnce(addr, "drifter", zeroDevice{}, silicon.Nominal, 5*time.Second)
	if err != nil || !res.Approved || res.Mismatches != 0 {
		t.Fatalf("post-replace auth: %+v, %v", res, err)
	}
}

// TestHealthyTrafficNeverQuarantines is the wire-level false-positive
// check: a fleet of well-behaved chips authenticating many times must all
// stay healthy.
func TestHealthyTrafficNeverQuarantines(t *testing.T) {
	srv := NewServer(10, 92)
	for i := 0; i < 4; i++ {
		if err := srv.Register(fmt.Sprintf("good-%d", i), flatModel()); err != nil {
			t.Fatal(err)
		}
	}
	srv.SetHealthHandler(func(ev health.Event) {
		t.Errorf("unexpected health transition: %v", ev)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()
	addr := ln.Addr().String()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("good-%d", i)
			for j := 0; j < 20; j++ {
				res, err := authOnce(addr, id, zeroDevice{}, silicon.Nominal, 5*time.Second)
				if err != nil || !res.Approved {
					t.Errorf("%s session %d: %+v, %v", id, j, res, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		if st := srv.ChipStatus(fmt.Sprintf("good-%d", i)); st.Health != health.Healthy {
			t.Errorf("good-%d ended %v", i, st.Health)
		}
	}
}

// TestClientRejectsOutOfEnvelopeCondition: the client refuses to start a
// session at a condition the silicon model cannot evaluate, before dialing.
func TestClientRejectsOutOfEnvelopeCondition(t *testing.T) {
	c := &V2Client{
		Addr: "127.0.0.1:1", ChipID: "x", Device: zeroDevice{},
		Cond: silicon.Condition{VDD: 0.5, TempC: 25},
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := c.Authenticate(ctx); err == nil {
		t.Fatal("out-of-envelope condition accepted")
	}
}
