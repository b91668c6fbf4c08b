package experiments

import (
	"math"
	"strings"
	"testing"
)

// fastCfg shrinks the Fast config further so the whole experiment suite
// runs inside the unit-test budget while still exercising every code path.
func fastCfg() Config {
	cfg := Fast()
	cfg.Challenges = 8000
	cfg.ValidationSize = 8000
	cfg.Chips = 3
	cfg.AttackWidths = []int{2}
	cfg.AttackSizes = []int{2000}
	cfg.AttackTestSize = 800
	cfg.AttackMLP.LBFGS.MaxIter = 80
	return cfg
}

func TestFig2Calibration(t *testing.T) {
	res := Fig2(fastCfg())
	total := res.FracStable0 + res.FracStable1
	if total < 0.74 || total > 0.86 {
		t.Errorf("stable fraction %.3f, want ≈0.80 (paper Fig 2)", total)
	}
	// The distribution must be strongly bimodal: interior bins together
	// hold the minority of mass.
	interior := 1 - total
	if interior > 0.3 {
		t.Errorf("interior mass %.3f too high; distribution not bimodal", interior)
	}
	tbl := res.Table()
	if !strings.Contains(tbl.String(), "Pr(stable0)") {
		t.Error("table missing summary rows")
	}
}

func TestFig3ExponentialDecay(t *testing.T) {
	res := Fig3(fastCfg())
	if len(res.Widths) != 10 {
		t.Fatalf("got %d widths, want 10", len(res.Widths))
	}
	if res.FitBase < 0.75 || res.FitBase > 0.86 {
		t.Errorf("fitted base %.3f, want ≈0.80 (paper Fig 3)", res.FitBase)
	}
	// n = 10 point near 10.9 %.
	last := res.Measured[9]
	if last < 0.04 || last > 0.20 {
		t.Errorf("n=10 stable fraction %.4f, want ≈0.109", last)
	}
	// Monotone decreasing.
	for i := 1; i < len(res.Measured); i++ {
		if res.Measured[i] > res.Measured[i-1] {
			t.Errorf("stable fraction increased at n=%d", res.Widths[i])
		}
	}
}

func TestFig4NarrowBreaks(t *testing.T) {
	res := Fig4(fastCfg())
	if len(res.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(res.Cells))
	}
	if acc := res.BestAccuracy(2); acc < 0.85 {
		t.Errorf("2-XOR best accuracy %.3f, want > 0.85", acc)
	}
	if !strings.Contains(res.Table().String(), "train CRPs") {
		t.Error("table missing header")
	}
}

func TestFig8ThresholdsAndDiscards(t *testing.T) {
	res := Fig8(fastCfg())
	if !(res.Thr0 > 0 && res.Thr0 < 0.5 && res.Thr1 > 0.5 && res.Thr1 < 1) {
		t.Errorf("thresholds (%.3f, %.3f) outside expected bands", res.Thr0, res.Thr1)
	}
	n := res.PredStable0 + res.PredUnstable + res.PredStable1
	if n != res.TrainingSize {
		t.Fatalf("classification counts %d != training size %d", n, res.TrainingSize)
	}
	// Key paper observation: some measured-stable CRPs are discarded as
	// marginally stable, so predicted-stable < measured-stable.
	predStable := res.PredStable0 + res.PredStable1
	if predStable >= res.MeasuredStable {
		t.Errorf("predicted stable (%d) should be below measured stable (%d)",
			predStable, res.MeasuredStable)
	}
	if res.MeasuredStableDiscarded == 0 {
		t.Error("expected some measured-stable-but-discarded CRPs")
	}
	// Predictions must span a wider range than [0,1].
	if res.PredHist.Below+res.PredHist.Above == 0 &&
		res.PredHist.Counts[0] == 0 && res.PredHist.Counts[len(res.PredHist.Counts)-1] == 0 {
		t.Log("note: predictions all inside [-1.5, 2.5] core band")
	}
}

func TestFig9BetaRanges(t *testing.T) {
	res := Fig9(fastCfg())
	if len(res.PerPUF) != 3 {
		t.Fatalf("got %d PUFs, want 3", len(res.PerPUF))
	}
	for i, b := range res.PerPUF {
		if b.Beta0 > 1 || b.Beta0 < 0.3 {
			t.Errorf("chip %d: β0 = %.2f outside plausible range", i, b.Beta0)
		}
		if b.Beta1 < 1 || b.Beta1 > 1.7 {
			t.Errorf("chip %d: β1 = %.2f outside plausible range", i, b.Beta1)
		}
	}
	if res.Pooled0 > 1 || res.Pooled1 < 1 {
		t.Errorf("pooled (%v, %v) not conservative", res.Pooled0, res.Pooled1)
	}
}

func TestFig10PredictedBelowMeasuredAndSaturating(t *testing.T) {
	res := Fig10(fastCfg())
	if len(res.Points) != 7 {
		t.Fatalf("got %d points, want 7", len(res.Points))
	}
	for _, p := range res.Points {
		if p.PredictedPct >= p.MeasuredPct {
			t.Errorf("size %d: predicted %.1f%% not below measured %.1f%%",
				p.TrainSize, p.PredictedPct, p.MeasuredPct)
		}
		if p.MeasuredPct < 70 || p.MeasuredPct > 90 {
			t.Errorf("measured %.1f%%, want ≈80%%", p.MeasuredPct)
		}
		// Model-selected challenges must essentially all be stable.
		if float64(p.SelectedWrong) > 0.005*float64(res.Challenges) {
			t.Errorf("size %d: %d selected-but-unstable challenges", p.TrainSize, p.SelectedWrong)
		}
	}
	// Larger training sets must not hurt yield much: the largest size
	// should beat the smallest.
	if res.Points[len(res.Points)-1].PredictedPct <= res.Points[0].PredictedPct {
		t.Errorf("yield did not improve with training size: %.1f%% (500) vs %.1f%% (10000)",
			res.Points[0].PredictedPct, res.Points[len(res.Points)-1].PredictedPct)
	}
}

func TestFig11VTHardening(t *testing.T) {
	res := Fig11(fastCfg())
	if res.Beta0VT > res.Beta0Nom || res.Beta1VT < res.Beta1Nom {
		t.Errorf("V/T β (%v, %v) not at least as stringent as nominal (%v, %v)",
			res.Beta0VT, res.Beta1VT, res.Beta0Nom, res.Beta1Nom)
	}
	if res.PredictedVTPct > res.PredictedNomPct {
		t.Errorf("V/T selection %.2f%% exceeds nominal %.2f%%", res.PredictedVTPct, res.PredictedNomPct)
	}
	if res.MeasuredStableAllPct >= res.MeasuredStableNomPct {
		t.Errorf("all-corner stability %.1f%% should be below nominal %.1f%%",
			res.MeasuredStableAllPct, res.MeasuredStableNomPct)
	}
	// The paper's point: hardened selection keeps its picks stable at
	// every corner (at most a stray marginal case).
	if float64(res.SelectedWrongVTB) > 0.002*float64(res.Challenges) {
		t.Errorf("hardened β selected %d V/T-unstable challenges out of %d",
			res.SelectedWrongVTB, res.Challenges)
	}
	// Hardened selection must cut V/T-unstable picks relative to nominal β.
	if res.SelectedWrongVTB > res.SelectedWrongNominalB {
		t.Errorf("hardened β selected more V/T-unstable challenges (%d) than nominal (%d)",
			res.SelectedWrongVTB, res.SelectedWrongNominalB)
	}
}

func TestFig12ThreeCurves(t *testing.T) {
	cfg := fastCfg()
	cfg.Challenges = 20000 // deeper test set so the n=10 points have counts
	res := Fig12(cfg)
	if len(res.Widths) != 10 {
		t.Fatalf("got %d widths, want 10", len(res.Widths))
	}
	// Ordering at every width: measured ≥ predicted-nominal ≥ predicted-V/T.
	for i := range res.Widths {
		if res.PredNomPct[i] > res.MeasuredPct[i]+1e-9 {
			t.Errorf("n=%d: predicted-nominal %.3f%% above measured %.3f%%",
				res.Widths[i], res.PredNomPct[i], res.MeasuredPct[i])
		}
		if res.PredVTPct[i] > res.PredNomPct[i]+1e-9 {
			t.Errorf("n=%d: predicted-V/T %.3f%% above predicted-nominal %.3f%%",
				res.Widths[i], res.PredVTPct[i], res.PredNomPct[i])
		}
	}
	// Bases ordered like the paper's 0.800 / 0.545 / 0.342.
	if !(res.BaseMeasured > res.BaseNom && res.BaseNom > res.BaseVT) {
		t.Errorf("fitted bases not ordered: measured %.3f, nominal %.3f, V/T %.3f",
			res.BaseMeasured, res.BaseNom, res.BaseVT)
	}
	if res.BaseMeasured < 0.75 || res.BaseMeasured > 0.86 {
		t.Errorf("measured base %.3f, want ≈0.80", res.BaseMeasured)
	}
}

func TestMetricsPanel(t *testing.T) {
	res := Metrics(fastCfg())
	if math.Abs(res.Uniqueness-0.5) > 0.06 {
		t.Errorf("uniqueness %.3f, want ≈0.5", res.Uniqueness)
	}
	if math.Abs(res.XORUniqueness-0.5) > 0.06 {
		t.Errorf("XOR uniqueness %.3f, want ≈0.5", res.XORUniqueness)
	}
	if res.Reliability < 0.93 {
		t.Errorf("single-PUF reliability %.3f, want > 0.93", res.Reliability)
	}
	// Raw XOR responses are less reliable than single-PUF responses —
	// the stability cost of the XOR construction.
	if res.XORReliability >= res.Reliability {
		t.Errorf("XOR reliability %.3f should be below single-PUF %.3f",
			res.XORReliability, res.Reliability)
	}
	if math.Abs(res.UniformityMean-0.5) > 0.08 {
		t.Errorf("uniformity %.3f, want ≈0.5", res.UniformityMean)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"a", "bb"}}
	tbl.AddRowf(1, 2.5)
	tbl.AddRowf("x", "y")
	s := tbl.String()
	if !strings.Contains(s, "T\n") || !strings.Contains(s, "2.5") {
		t.Errorf("render:\n%s", s)
	}
	csv := tbl.CSV()
	if !strings.HasPrefix(csv, "a,bb\n") {
		t.Errorf("csv:\n%s", csv)
	}
}

func TestProtocolsComparison(t *testing.T) {
	cfg := fastCfg()
	res := Protocols(cfg)
	if len(res.Rows) != 4 {
		t.Fatalf("got %d protocol rows, want 4", len(res.Rows))
	}
	byName := map[string]ProtocolRow{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	ma := byName["model-assisted (paper)"]
	classic := byName["classic HD (10% threshold)"]
	// The paper's protocol must not false-reject across corners and must
	// not false-accept the impostor.
	if ma.FalseRejects != 0 {
		t.Errorf("model-assisted false-rejected %d/%d across corners", ma.FalseRejects, ma.AuthTrials)
	}
	if ma.FalseAccepts != 0 {
		t.Errorf("model-assisted false-accepted %d/%d impostors", ma.FalseAccepts, ma.AuthTrials)
	}
	// The classic protocol should false-reject at least as often at the
	// corners (its references were recorded at nominal only).
	if classic.FalseRejects < ma.FalseRejects {
		t.Errorf("classic HD false-rejects (%d) below model-assisted (%d)",
			classic.FalseRejects, ma.FalseRejects)
	}
	// Model storage must be far below any CRP-table protocol.
	for name, r := range byName {
		if name == "model-assisted (paper)" {
			continue
		}
		if ma.StoredBytes >= r.StoredBytes {
			t.Errorf("model storage %dB not below %s storage %dB", ma.StoredBytes, name, r.StoredBytes)
		}
		if !r.DBBound {
			t.Errorf("%s should deplete its DB", name)
		}
	}
	if ma.DBBound {
		t.Error("model-assisted protocol must not deplete a DB")
	}
}

func TestAvalancheStructure(t *testing.T) {
	cfg := fastCfg()
	cfg.Challenges = 4000
	res := Avalanche(cfg)
	if len(res.SingleFlip) != 32 {
		t.Fatalf("got %d positions, want 32", len(res.SingleFlip))
	}
	// Single PUF: late bits must be far more sensitive than early bits
	// (flipping bit i negates features 0..i).
	early := (res.SingleFlip[0] + res.SingleFlip[1] + res.SingleFlip[2]) / 3
	late := (res.SingleFlip[29] + res.SingleFlip[30] + res.SingleFlip[31]) / 3
	if late <= early {
		t.Errorf("late-bit sensitivity %.3f not above early-bit %.3f", late, early)
	}
	// Flipping the last stage bit negates every non-constant feature
	// (Δ → 2w_k − Δ), so late-bit flip probability runs well ABOVE 0.5 —
	// the single PUF's notorious anti-avalanche structure.
	if late < 0.55 {
		t.Errorf("late-bit sensitivity %.3f, want > 0.55", late)
	}
	if early > 0.25 {
		t.Errorf("early-bit sensitivity %.3f, want small", early)
	}
	// XOR composition must pull every position toward the ideal 0.5:
	// |1−2p_xor| = Π|1−2p_i| ≤ |1−2p_single| for independent members.
	for bit := 0; bit < 32; bit++ {
		devXOR := math.Abs(res.XORFlip[bit] - 0.5)
		devSingle := math.Abs(res.SingleFlip[bit] - 0.5)
		if devXOR > devSingle+0.03 {
			t.Errorf("bit %d: XOR deviation %.3f exceeds single-PUF %.3f",
				bit, devXOR, devSingle)
		}
		if devXOR > 0.10 {
			t.Errorf("bit %d: XOR flip %.3f too far from 0.5", bit, res.XORFlip[bit])
		}
	}
}

func TestRenderBars(t *testing.T) {
	out := RenderBars("T", []string{"a", "b"}, []Series{
		{Name: "s1", Values: []float64{1, 100}},
		{Name: "s2", Values: []float64{10, 0}},
	}, 20, true)
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "s1") || !strings.Contains(out, "s2") {
		t.Errorf("render:\n%s", out)
	}
	// The 100 bar must be longer than the 1 bar.
	lines := strings.Split(out, "\n")
	var bar1, bar100 int
	for _, l := range lines {
		if strings.Contains(l, "s1") {
			n := strings.Count(l, "█")
			if strings.HasSuffix(l, " 1") {
				bar1 = n
			}
			if strings.HasSuffix(l, " 100") {
				bar100 = n
			}
		}
	}
	if bar100 <= bar1 {
		t.Errorf("bar lengths not ordered: %d vs %d", bar1, bar100)
	}
	empty := RenderBars("E", []string{"x"}, []Series{{Name: "s", Values: []float64{0}}}, 10, false)
	if !strings.Contains(empty, "no positive data") {
		t.Errorf("empty render:\n%s", empty)
	}
}

func TestFigPlotsRender(t *testing.T) {
	cfg := fastCfg()
	cfg.Challenges = 3000
	f3 := Fig3(cfg)
	if p := f3.Plot(40); !strings.Contains(p, "n=10") {
		t.Errorf("fig3 plot:\n%s", p)
	}
	f12 := Fig12(cfg)
	if p := f12.Plot(40); !strings.Contains(p, "V/T-β") {
		t.Errorf("fig12 plot:\n%s", p)
	}
}
