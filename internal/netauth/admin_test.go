package netauth

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"xorpuf/internal/challenge"
	"xorpuf/internal/core"
	"xorpuf/internal/registry"
	"xorpuf/internal/silicon"
)

// flatModel is a synthetic chip model whose every challenge is predicted
// Stable0 (zero θ ⇒ prediction 0.0 < Thr0), so selection never stalls and
// admin tests never pay for enrollment.
func flatModel() *core.ChipModel {
	m := &core.ChipModel{PUFs: make([]*core.PUFModel, 2), Beta0: 1, Beta1: 1}
	for i := range m.PUFs {
		m.PUFs[i] = &core.PUFModel{Theta: make([]float64, 33), Thr0: 0.4, Thr1: 0.6}
	}
	return m
}

// zeroDevice answers 0 to every challenge — a perfect device for flatModel.
type zeroDevice struct{}

func (zeroDevice) ReadXOR(challenge.Challenge, silicon.Condition) uint8 { return 0 }

func TestDeregisterRevokesChip(t *testing.T) {
	addr, srv, chip := startServer(t, 30)

	res, err := authOnce(addr, "chip-A", chip, silicon.Nominal, 5*time.Second)
	if err != nil || !res.Approved {
		t.Fatalf("genuine auth before Deregister: %+v, %v", res, err)
	}
	if !srv.Deregister("chip-A") {
		t.Fatal("Deregister reported chip-A not registered")
	}
	if srv.Deregister("chip-A") {
		t.Fatal("second Deregister reported chip-A still registered")
	}
	if st := srv.ChipStatus("chip-A"); st.Registered {
		t.Fatal("chip-A still registered per ChipStatus")
	}
	_, err = authOnce(addr, "chip-A", chip, silicon.Nominal, 5*time.Second)
	var perr *ProtocolError
	if !errors.As(err, &perr) || perr.Code != CodeUnknownChip {
		t.Fatalf("auth after Deregister err = %v, want %s", err, CodeUnknownChip)
	}
	if perr.Retryable {
		t.Error("unknown_chip after Deregister marked retryable")
	}
	// The ID can be re-registered (fresh selector, fresh history).
	if err := srv.Register("chip-A", flatModel()); err != nil {
		t.Fatalf("re-Register after Deregister: %v", err)
	}
}

// TestServerOverRecoveredRegistry authenticates against a server whose
// database was recovered from another process lifetime's WAL, covering the
// NewServerWithRegistry path end to end.
func TestServerOverRecoveredRegistry(t *testing.T) {
	dir := t.TempDir()
	r1, err := registry.Open(dir, registry.Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Register("chip-Z", flatModel(), 0); err != nil {
		t.Fatal(err)
	}
	// Hard stop r1; recover into the serving registry.
	r2, err := registry.Open(dir, registry.Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	srv := NewServerWithRegistry(25, 4, r2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()
	res, err := authOnce(ln.Addr().String(), "chip-Z", zeroDevice{}, silicon.Nominal, 5*time.Second)
	if err != nil || !res.Approved {
		t.Fatalf("auth over recovered registry: %+v, %v", res, err)
	}
}

// TestConcurrentAdminOps exercises the full admin surface — Register,
// Deregister, ChipStatus, Unlock, Stats — against a server that is actively
// authenticating clients.  Under -race this is the server's concurrency
// contract for the sharded-registry rewiring.
func TestConcurrentAdminOps(t *testing.T) {
	srv := NewServer(10, 6)
	for i := 0; i < 4; i++ {
		if err := srv.Register(fmt.Sprintf("auth-%d", i), flatModel()); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()
	addr := ln.Addr().String()

	const perWorker = 15
	var wg sync.WaitGroup
	// Authenticating clients on stable IDs.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("auth-%d", w)
			for i := 0; i < perWorker; i++ {
				res, err := authOnce(addr, id, zeroDevice{}, silicon.Nominal, 5*time.Second)
				if err != nil {
					t.Errorf("auth %s: %v", id, err)
					return
				}
				if !res.Approved {
					t.Errorf("auth %s denied (%d mismatches)", id, res.Mismatches)
					return
				}
			}
		}(w)
	}
	// Admin churn on disjoint IDs, interleaved with status/stats reads.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("churn-%d-%d", w, i)
				if err := srv.Register(id, flatModel()); err != nil {
					t.Errorf("Register %s: %v", id, err)
					return
				}
				if st := srv.ChipStatus(id); !st.Registered {
					t.Errorf("ChipStatus %s: not registered", id)
					return
				}
				_ = srv.Unlock(id) // not locked; must be a safe no-op
				srv.Stats()
				_ = srv.ChipStatus(fmt.Sprintf("auth-%d", w))
				if i%2 == 0 {
					if !srv.Deregister(id) {
						t.Errorf("Deregister %s failed", id)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	approved, denied := srv.Stats()
	if approved != 4*perWorker || denied != 0 {
		t.Fatalf("stats %d/%d, want %d/0", approved, denied, 4*perWorker)
	}
	// Half the churn chips (odd i) remain registered.
	want := 4 + 4*perWorker - 4*(perWorker/2+perWorker%2)
	if got := srv.Registry().Len(); got != want {
		t.Fatalf("registry Len = %d, want %d", got, want)
	}
	for w := 0; w < 4; w++ {
		if st := srv.ChipStatus(fmt.Sprintf("auth-%d", w)); st.Issued != perWorker*10 {
			t.Fatalf("auth-%d issued %d challenges, want %d", w, st.Issued, perWorker*10)
		}
	}
}
