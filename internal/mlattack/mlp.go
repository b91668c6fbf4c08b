package mlattack

import (
	"fmt"
	"math"

	"xorpuf/internal/linalg"
	"xorpuf/internal/rng"
)

// MLP is a fully connected feed-forward network with tanh hidden activations
// and a single logistic output — the paper's 3-layer (35-25-25) perceptron
// classifier.  Parameters live in one flat vector so the network can be
// trained directly with MinimizeLBFGS; the struct itself holds only the
// architecture.
type MLP struct {
	sizes []int // [inputDim, hidden..., 1]
	// offsets[l] is the index of layer l's weight block in the flat
	// parameter vector; each block is W (sizes[l]×sizes[l+1]) followed by
	// b (sizes[l+1]).
	offsets []int
	nParams int
}

// NewMLP builds an architecture with the given input dimension and hidden
// layer sizes; the output layer is a single logistic unit.
func NewMLP(inputDim int, hidden []int) *MLP {
	if inputDim <= 0 {
		panic("mlattack: input dimension must be positive")
	}
	for _, h := range hidden {
		if h <= 0 {
			panic("mlattack: hidden layer sizes must be positive")
		}
	}
	sizes := make([]int, 0, len(hidden)+2)
	sizes = append(sizes, inputDim)
	sizes = append(sizes, hidden...)
	sizes = append(sizes, 1)
	m := &MLP{sizes: sizes}
	m.offsets = make([]int, len(sizes)-1)
	total := 0
	for l := 0; l < len(sizes)-1; l++ {
		m.offsets[l] = total
		total += sizes[l]*sizes[l+1] + sizes[l+1]
	}
	m.nParams = total
	return m
}

// Layers returns the number of weight layers (hidden layers + output).
func (m *MLP) Layers() int { return len(m.sizes) - 1 }

// InputDim returns the expected feature dimension.
func (m *MLP) InputDim() int { return m.sizes[0] }

// layer returns matrix views of layer l's weights and bias inside params.
func (m *MLP) layer(params []float64, l int) (w *linalg.Matrix, b []float64) {
	in, out := m.sizes[l], m.sizes[l+1]
	off := m.offsets[l]
	w = &linalg.Matrix{Rows: in, Cols: out, Data: params[off : off+in*out]}
	b = params[off+in*out : off+in*out+out]
	return w, b
}

// InitParams returns Glorot-uniform initial parameters drawn from src
// (the same initialization family scikit-learn uses).
func (m *MLP) InitParams(src *rng.Source) []float64 {
	params := make([]float64, m.nParams)
	for l := 0; l < m.Layers(); l++ {
		in, out := m.sizes[l], m.sizes[l+1]
		bound := math.Sqrt(6.0 / float64(in+out))
		w, _ := m.layer(params, l)
		for i := range w.Data {
			w.Data[i] = bound * (2*src.Float64() - 1)
		}
		// Biases start at zero.
	}
	return params
}

// forward runs the network, returning each layer's activation matrix
// (activations[0] == x) and the final logits (n×1).
func (m *MLP) forward(params []float64, x *linalg.Matrix) (activations []*linalg.Matrix, logits *linalg.Matrix) {
	if x.Cols != m.InputDim() {
		panic(fmt.Sprintf("mlattack: input has %d features, want %d", x.Cols, m.InputDim()))
	}
	activations = make([]*linalg.Matrix, m.Layers())
	a := x
	for l := 0; l < m.Layers(); l++ {
		activations[l] = a
		w, b := m.layer(params, l)
		z := a.MulPar(w)
		for i := 0; i < z.Rows; i++ {
			row := z.Row(i)
			for j := range row {
				row[j] += b[j]
			}
		}
		if l < m.Layers()-1 {
			for i := range z.Data {
				z.Data[i] = math.Tanh(z.Data[i])
			}
		}
		a = z
	}
	return activations, a
}

// Predict returns the output probability P(y=1|x) for each row of x.
func (m *MLP) Predict(params []float64, x *linalg.Matrix) []float64 {
	_, logits := m.forward(params, x)
	out := make([]float64, logits.Rows)
	for i := range out {
		out[i] = sigmoid(logits.Data[i])
	}
	return out
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// logLoss returns the numerically stable cross-entropy of a logit against a
// 0/1 label: max(z,0) − z·y + log(1+exp(−|z|)).
func logLoss(z, y float64) float64 {
	loss := -z * y
	if z > 0 {
		loss += z
	}
	return loss + math.Log1p(math.Exp(-math.Abs(z)))
}

// Objective returns an Objective computing the mean cross-entropy of the
// network on (x, y) plus L2 weight decay alpha/(2n)·‖W‖² (biases excluded),
// with the exact analytic gradient via backpropagation.
func (m *MLP) Objective(x *linalg.Matrix, y []float64, alpha float64) Objective {
	if x.Rows != len(y) {
		panic(fmt.Sprintf("mlattack: %d samples but %d labels", x.Rows, len(y)))
	}
	n := float64(x.Rows)
	return func(params, grad []float64) float64 {
		activations, logits := m.forward(params, x)
		// Output delta and loss.
		loss := 0.0
		delta := linalg.NewMatrix(logits.Rows, 1)
		for i := 0; i < logits.Rows; i++ {
			z := logits.Data[i]
			loss += logLoss(z, y[i])
			delta.Data[i] = (sigmoid(z) - y[i]) / n
		}
		loss /= n
		for i := range grad {
			grad[i] = 0
		}
		// Backpropagate layer by layer.
		for l := m.Layers() - 1; l >= 0; l-- {
			w, _ := m.layer(params, l)
			gOff := m.offsets[l]
			in, out := m.sizes[l], m.sizes[l+1]
			gw := &linalg.Matrix{Rows: in, Cols: out, Data: grad[gOff : gOff+in*out]}
			gb := grad[gOff+in*out : gOff+in*out+out]
			// Weight gradient: A_{l}ᵀ · delta (+ L2).
			prod := linalg.MulAtB(activations[l], delta)
			copy(gw.Data, prod.Data)
			if alpha > 0 {
				for i := range gw.Data {
					gw.Data[i] += alpha / n * w.Data[i]
				}
			}
			// Bias gradient: column sums of delta.
			for i := 0; i < delta.Rows; i++ {
				row := delta.Row(i)
				for j := range row {
					gb[j] += row[j]
				}
			}
			if l > 0 {
				// delta_{l-1} = (delta · Wᵀ) ⊙ (1 − A_l²).
				back := linalg.MulABt(delta, w)
				act := activations[l]
				for i := range back.Data {
					a := act.Data[i]
					back.Data[i] *= 1 - a*a
				}
				delta = back
			}
		}
		// L2 penalty value (weights only).
		if alpha > 0 {
			var ss float64
			for l := 0; l < m.Layers(); l++ {
				w, _ := m.layer(params, l)
				for _, v := range w.Data {
					ss += v * v
				}
			}
			loss += alpha / (2 * n) * ss
		}
		return loss
	}
}
