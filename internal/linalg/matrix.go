// Package linalg provides the dense linear algebra needed by the delay-model
// regression (least squares via QR or Cholesky) and the neural-network attack
// (matrix products, vector arithmetic, L-BFGS direction updates).
//
// Matrices are dense, row-major float64.  The package deliberately implements
// only what the repository needs, with predictable O(n³)/O(n²) loops that the
// Go compiler vectorizes well, rather than wrapping BLAS (the module must be
// stdlib-only).
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Mul returns the product m × other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch (%dx%d)×(%dx%d)",
			m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := NewMatrix(m.Rows, other.Cols)
	// ikj loop order: the inner loop streams over contiguous rows of both
	// `other` and `out`, which is the cache-friendly order for row-major
	// storage.
	for i := 0; i < m.Rows; i++ {
		mRow := m.Row(i)
		outRow := out.Row(i)
		for k, a := range mRow {
			if a == 0 {
				continue
			}
			oRow := other.Row(k)
			for j, b := range oRow {
				outRow[j] += a * b
			}
		}
	}
	return out
}

// MulVec returns m × v for a column vector v (len == m.Cols).
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch (%dx%d)×%d",
			m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), v)
	}
	return out
}

// MulTVec returns mᵀ × v for a column vector v (len == m.Rows), without
// materializing the transpose.
func (m *Matrix) MulTVec(v []float64) []float64 {
	if m.Rows != len(v) {
		panic(fmt.Sprintf("linalg: MulTVec shape mismatch (%dx%d)ᵀ×%d",
			m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Cols)
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		row := m.Row(i)
		for j, a := range row {
			out[j] += vi * a
		}
	}
	return out
}

// Dot returns the dot product of equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm of x, guarding against overflow.
func Norm2(x []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the maximum absolute element of x.
func NormInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Copy returns a fresh copy of x.
func Copy(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}

// Sub returns a-b as a new vector.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("linalg: Sub length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}
