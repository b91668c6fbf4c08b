package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"xorpuf/internal/rng"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMulKnown(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	b := &Matrix{Rows: 2, Cols: 2, Data: []float64{5, 6, 7, 8}}
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	s := rng.New(1)
	a := randomMatrix(s, 7, 5)
	v := randomVector(s, 5)
	got := a.MulVec(v)
	col := NewMatrix(5, 1)
	copy(col.Data, v)
	want := a.Mul(col)
	for i := range got {
		if !approxEq(got[i], want.At(i, 0), 1e-12) {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestMulTVecMatchesTranspose(t *testing.T) {
	s := rng.New(2)
	a := randomMatrix(s, 6, 4)
	v := randomVector(s, 6)
	got := a.MulTVec(v)
	want := a.T().MulVec(v)
	for i := range got {
		if !approxEq(got[i], want[i], 1e-12) {
			t.Fatalf("MulTVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	s := rng.New(3)
	a := randomMatrix(s, 5, 9)
	tt := a.T().T()
	for i := range a.Data {
		if a.Data[i] != tt.Data[i] {
			t.Fatal("transpose is not an involution")
		}
	}
}

func TestMulAssociativity(t *testing.T) {
	s := rng.New(4)
	a := randomMatrix(s, 4, 3)
	b := randomMatrix(s, 3, 5)
	c := randomMatrix(s, 5, 2)
	left := a.Mul(b).Mul(c)
	right := a.Mul(b.Mul(c))
	for i := range left.Data {
		if !approxEq(left.Data[i], right.Data[i], 1e-10) {
			t.Fatal("matrix multiplication not associative within tolerance")
		}
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	s := rng.New(5)
	// Build SPD matrix A = BᵀB + I.
	b := randomMatrix(s, 8, 6)
	a := b.T().Mul(b)
	for i := 0; i < 6; i++ {
		a.Set(i, i, a.At(i, i)+1)
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	recon := l.Mul(l.T())
	for i := range a.Data {
		if !approxEq(a.Data[i], recon.Data[i], 1e-9) {
			t.Fatalf("LLᵀ differs from A at %d: %v vs %v", i, recon.Data[i], a.Data[i])
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 0, 0, -1}}
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

func TestSolveSPD(t *testing.T) {
	s := rng.New(6)
	b := randomMatrix(s, 10, 4)
	a := b.T().Mul(b)
	for i := 0; i < 4; i++ {
		a.Set(i, i, a.At(i, i)+0.5)
	}
	xTrue := randomVector(s, 4)
	rhs := a.MulVec(xTrue)
	x, err := SolveSPD(a, rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !approxEq(x[i], xTrue[i], 1e-8) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Square, consistent system: solution must be exact.
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{2, 1, 1, 3}}
	x, err := LeastSquares(a, []float64{5, 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(x[0], 1, 1e-12) || !approxEq(x[1], 3, 1e-12) {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestLeastSquaresRecoversPlantedModel(t *testing.T) {
	s := rng.New(7)
	const m, n = 400, 12
	a := randomMatrix(s, m, n)
	xTrue := randomVector(s, n)
	b := a.MulVec(xTrue)
	x, err := LeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !approxEq(x[i], xTrue[i], 1e-9) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// Least-squares optimality: Aᵀ(Ax − b) must vanish.
	s := rng.New(8)
	const m, n = 50, 6
	a := randomMatrix(s, m, n)
	b := randomVector(s, m)
	x, err := LeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	resid := Sub(a.MulVec(x), b)
	grad := a.MulTVec(resid)
	if NormInf(grad) > 1e-9 {
		t.Fatalf("normal-equation residual too large: %v", NormInf(grad))
	}
}

func TestLeastSquaresRidgeShrinks(t *testing.T) {
	s := rng.New(9)
	const m, n = 30, 5
	a := randomMatrix(s, m, n)
	b := randomVector(s, m)
	x0, err := LeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := LeastSquares(a, b, 100)
	if err != nil {
		t.Fatal(err)
	}
	if Norm2(x1) >= Norm2(x0) {
		t.Fatalf("ridge did not shrink the solution: %v vs %v", Norm2(x1), Norm2(x0))
	}
}

func TestLeastSquaresMatchesNormalEquations(t *testing.T) {
	s := rng.New(10)
	const m, n = 80, 7
	a := randomMatrix(s, m, n)
	b := randomVector(s, m)
	xQR, err := LeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	ata, atb := NormalEquations(a, b)
	xNE, err := SolveSPD(ata, atb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xQR {
		if !approxEq(xQR[i], xNE[i], 1e-8) {
			t.Fatalf("QR and normal equations disagree at %d: %v vs %v", i, xQR[i], xNE[i])
		}
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := LeastSquares(a, []float64{1, 2}, 0); err == nil {
		t.Fatal("expected error for underdetermined system")
	}
}

func TestDotAxpyScale(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Errorf("Dot = %v, want 32", Dot(x, y))
	}
	Axpy(2, x, y)
	want := []float64{6, 9, 12}
	for i := range y {
		if y[i] != want[i] {
			t.Errorf("Axpy: y = %v, want %v", y, want)
			break
		}
	}
	Scale(0.5, y)
	want = []float64{3, 4.5, 6}
	for i := range y {
		if y[i] != want[i] {
			t.Errorf("Scale: y = %v, want %v", y, want)
			break
		}
	}
}

func TestNorm2AgainstDot(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		x := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e100 {
				x = append(x, v)
			}
		}
		n := Norm2(x)
		want := math.Sqrt(Dot(x, x))
		if want == 0 {
			return n == 0
		}
		return math.Abs(n-want)/want < 1e-12
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestNorm2Overflow(t *testing.T) {
	// Norm2 must survive values whose squares overflow float64.
	x := []float64{1e200, 1e200}
	want := 1e200 * math.Sqrt2
	if got := Norm2(x); math.Abs(got-want)/want > 1e-14 {
		t.Errorf("Norm2 overflow-safe path: got %v, want %v", got, want)
	}
}

func randomMatrix(s *rng.Source, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = s.Norm()
	}
	return m
}

func randomVector(s *rng.Source, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = s.Norm()
	}
	return v
}
