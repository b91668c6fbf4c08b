package netauth

import (
	"context"
	"testing"

	"xorpuf/internal/challenge"
	"xorpuf/internal/core"
	"xorpuf/internal/silicon"
)

// fastModelDevice answers from the model through the shared-feature fast
// path.  Not safe for concurrent use (phi scratch) — one per goroutine.
type fastModelDevice struct {
	m   *core.ChipModel
	phi []float64
}

func newFastModelDevice(m *core.ChipModel) *fastModelDevice {
	return &fastModelDevice{m: m, phi: make([]float64, challenge.FeatureDim(m.Stages()))}
}

func (d *fastModelDevice) ReadXOR(c challenge.Challenge, _ silicon.Condition) uint8 {
	challenge.FeaturesInto(c, d.phi)
	bit, _ := d.m.PredictXORFeatures(d.phi)
	return bit
}

// BenchmarkAuthSessionV2Pipelined is the throughput arm: GOMAXPROCS
// worker goroutines, each multiplexing batches of 16 sessions over its
// own persistent connection.  One op = 16 sessions; the sessions/sec
// metric is what BENCH_PR9.json gates on.
func BenchmarkAuthSessionV2Pipelined(b *testing.B) {
	const batch = 16
	proto := startBenchServer(b, 16, true)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	model := proto.Device.(modelAnswerDevice).m
	b.RunParallel(func(pb *testing.PB) {
		c := &V2Client{Addr: proto.Addr, ChipID: proto.ChipID, Device: newFastModelDevice(model),
			Cond: proto.Cond, Policy: RetryPolicy{MaxAttempts: 1}}
		defer c.Close()
		for pb.Next() {
			res, err := c.AuthenticateBatch(ctx, batch)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range res {
				if !r.Approved {
					b.Fatal("denied")
				}
			}
		}
	})
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N*batch)/sec, "sessions/sec")
	}
}

// TestV2SessionAllocBudget pins the end-to-end (client + in-process
// server) allocation cost of one session on a warm connection.  The
// retired JSON protocol spent 220 allocs/session; the pooled binary codec
// must come in at or under a quarter of that.
func TestV2SessionAllocBudget(t *testing.T) {
	const budget = 55
	c := startBenchServer(t, 16, true)
	ctx := context.Background()
	// Warm up: dial, fill the buffer pools on both ends.
	for i := 0; i < 5; i++ {
		if res, err := c.Authenticate(ctx); err != nil || !res.Approved {
			t.Fatalf("warmup %d: %+v, %v", i, res, err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		res, err := c.Authenticate(ctx)
		if err != nil || !res.Approved {
			t.Fatalf("%+v, %v", res, err)
		}
	})
	t.Logf("v2 session: %.1f allocs (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("v2 session allocates %.1f/op end-to-end, budget %d", allocs, budget)
	}
}
