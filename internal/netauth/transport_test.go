package netauth

// Transport faults between client and server: a torn or corrupted reply
// and a lossy link must classify as transient and be retried — never a
// hang, never a wrong verdict.

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"xorpuf/internal/core"
	"xorpuf/internal/faultnet"
	"xorpuf/internal/rng"
	"xorpuf/internal/silicon"
	"xorpuf/internal/wire"
)

// serveTruncated accepts connections, reads the client's opening bytes,
// writes a partial (or corrupted) frame, and slams the connection.
func serveTruncated(t *testing.T, reply []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				buf := make([]byte, 4096)
				conn.SetReadDeadline(time.Now().Add(time.Second))
				conn.Read(buf)    //nolint:errcheck
				conn.Write(reply) //nolint:errcheck
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestNegotiationTruncatedOrCorruptedIsRetryable: a half-delivered or
// CRC-broken first reply must classify as transient — the device retries
// and may reach a healthy replica.
func TestNegotiationTruncatedOrCorruptedIsRetryable(t *testing.T) {
	hello := wire.AppendFrame(nil, &wire.Msg{Type: wire.TChallenges, Stream: 1,
		Session: make([]byte, wire.SessionLen), Width: 4, Count: 2, Packed: []byte{0xFF}})
	corrupted := append([]byte(nil), hello...)
	corrupted[len(corrupted)-1] ^= 0x40 // break the CRC

	cases := []struct {
		name  string
		reply []byte
	}{
		{"truncated", hello[:5]},
		{"corrupted", corrupted},
		{"empty_close", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := serveTruncated(t, tc.reply)
			c := &V2Client{Addr: addr, ChipID: "chip-A", Device: zeroDevice{},
				Cond: silicon.Nominal, Timeout: 2 * time.Second,
				Policy: RetryPolicy{MaxAttempts: 1}}
			defer c.Close()
			_, err := c.Authenticate(context.Background())
			if err == nil {
				t.Fatal("expected an error from a mangled first reply")
			}
			if !Transient(err) {
				t.Fatalf("mangled first reply classified terminal: %v", err)
			}
		})
	}
}

// TestV2ThroughChaosLink drives pipelined batches across a faultnet
// transport injecting resets, stalls, and corruption.  Retries must ride
// out the faults, and corruption must never flip a verdict (the frame CRC
// catches it first).
func TestV2ThroughChaosLink(t *testing.T) {
	const (
		rounds     = 30
		batch      = 4
		msgTimeout = 150 * time.Millisecond
	)
	baseline := runtime.NumGoroutine()
	chip := silicon.NewChip(rng.New(1), silicon.DefaultParams(), 4)
	cfg := core.DefaultEnrollConfig()
	cfg.TrainingSize = 2000
	cfg.ValidationSize = 5000
	enr, err := core.EnrollChip(chip, rng.New(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(10, 3)
	if err := srv.Register("chip-A", enr.Model); err != nil {
		t.Fatal(err)
	}

	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := faultnet.WrapListener(ln2, faultnet.Config{
		Seed:        11,
		ResetProb:   0.04,
		StallProb:   0.04,
		Stall:       250 * time.Millisecond,
		CorruptProb: 0.05,
		MaxLatency:  2 * time.Millisecond,
	})
	go srv.Serve(fln) //nolint:errcheck

	policy := RetryPolicy{MaxAttempts: 10, BaseDelay: 2 * time.Millisecond,
		MaxDelay: 20 * time.Millisecond, Multiplier: 2, Jitter: 0.5}
	approvedBatches, terminal := 0, 0
	for i := 0; i < rounds; i++ {
		c := &V2Client{Addr: ln2.Addr().String(), ChipID: "chip-A", Device: chip,
			Cond: silicon.Nominal, Timeout: msgTimeout, Policy: policy,
			Jitter: rng.New(uint64(5000 + i))}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		res, err := c.AuthenticateBatch(ctx, batch)
		cancel()
		c.Close()
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			t.Fatalf("round %d hung past the outer deadline", i)
		case err != nil:
			terminal++
		default:
			for j, r := range res {
				if !r.Approved {
					t.Fatalf("round %d stream %d: genuine device denied (%d mismatches) — "+
						"corruption leaked through the CRC", i, j, r.Mismatches)
				}
			}
			approvedBatches++
		}
	}
	if approvedBatches < rounds*8/10 {
		t.Errorf("only %d/%d batches approved (%d terminal) — retries not riding out faults",
			approvedBatches, rounds, terminal)
	}
	t.Logf("chaos v2: %d/%d batches approved, %d terminal", approvedBatches, rounds, terminal)

	srv.Close()
	waitGoroutines(t, baseline)
}
