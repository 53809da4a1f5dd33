// Package linreg implements the linear regression machinery behind TESLA's
// DC time-series model (paper §3.2): multi-output ridge regression solved
// analytically through the normal equations, with the bias column excluded
// from the L2 penalty. It also provides the plain ordinary-least-squares
// variant used by the Lazic et al. baseline.
//
// TESLA's direct strategy trains one regression per prediction-horizon step,
// which maps onto a single Ridge fit with one output column per step (all
// outputs sharing the same design matrix share one Cholesky factorization,
// which is what makes the (1+N_a+N_d)·L regression problems of the paper
// cheap to solve).
package linreg

import (
	"fmt"

	"tesla/internal/mat"
)

// Model is a fitted multi-output linear map y = Wᵀ·x + b.
type Model struct {
	// Weights is d×m: column j holds the weight vector of output j.
	Weights *mat.Dense
	// Bias has one intercept per output.
	Bias []float64
	// Alpha is the ridge penalty the model was fitted with.
	Alpha float64
}

// Fit solves the ridge regression problem
//
//	min_W ‖X·W − Y‖² + α‖W‖²
//
// with an unpenalized intercept, via the normal equations
// (XᵀX + αI)·W = XᵀY computed on centered data. X is n×d, Y is n×m.
// With α = 0 this is the ordinary-least-squares solution (the paper's
// ASP sub-module uses α=0; ACU, DCS and cooling-energy use α=1).
func Fit(x, y *mat.Dense, alpha float64) (*Model, error) {
	if x.Rows != y.Rows {
		return nil, fmt.Errorf("linreg: X has %d rows, Y has %d", x.Rows, y.Rows)
	}
	if x.Rows == 0 {
		return nil, fmt.Errorf("linreg: empty design matrix")
	}
	if alpha < 0 {
		return nil, fmt.Errorf("linreg: negative ridge penalty %g", alpha)
	}
	n, d, m := x.Rows, x.Cols, y.Cols

	// Center X and Y so the intercept absorbs the means and stays
	// unpenalized.
	xMean := colMeans(x)
	yMean := colMeans(y)
	xc := x.Clone()
	for i := 0; i < n; i++ {
		row := xc.Row(i)
		for j := range row {
			row[j] -= xMean[j]
		}
	}
	yc := y.Clone()
	for i := 0; i < n; i++ {
		row := yc.Row(i)
		for j := range row {
			row[j] -= yMean[j]
		}
	}

	gram := mat.Gram(xc)
	for j := 0; j < d; j++ {
		gram.Data[j*d+j] += alpha
	}
	xty := mat.XtY(xc, yc)
	w, err := mat.SolveSPD(gram, xty)
	if err != nil {
		return nil, fmt.Errorf("linreg: solving normal equations: %w", err)
	}

	bias := make([]float64, m)
	for j := 0; j < m; j++ {
		b := yMean[j]
		for k := 0; k < d; k++ {
			b -= w.Data[k*m+j] * xMean[k]
		}
		bias[j] = b
	}
	return &Model{Weights: w, Bias: bias, Alpha: alpha}, nil
}

// Predict evaluates the model for a single feature vector, returning one
// value per output.
func (m *Model) Predict(x []float64) []float64 { return m.PredictInto(x, nil) }

// PredictInto is Predict with a caller-provided output buffer. It panics when
// x does not have one value per feature: a short vector would otherwise
// predict from a prefix of the weights.
func (m *Model) PredictInto(x, out []float64) []float64 {
	if len(x) != m.Weights.Rows {
		panic(fmt.Sprintf("linreg: feature length %d, model expects %d", len(x), m.Weights.Rows))
	}
	if cap(out) < len(m.Bias) {
		out = make([]float64, len(m.Bias))
	}
	out = out[:len(m.Bias)]
	copy(out, m.Bias)
	for k, xv := range x {
		if xv == 0 {
			continue
		}
		wrow := m.Weights.Row(k)
		for j, wv := range wrow {
			out[j] += xv * wv
		}
	}
	return out
}

// PredictBatch evaluates the model over every row of x, returning n×m.
func (m *Model) PredictBatch(x *mat.Dense) *mat.Dense {
	out := mat.New(x.Rows, len(m.Bias))
	for i := 0; i < x.Rows; i++ {
		m.PredictInto(x.Row(i), out.Row(i))
	}
	return out
}

// NumOutputs returns the output dimensionality.
func (m *Model) NumOutputs() int { return len(m.Bias) }

// NumFeatures returns the input dimensionality.
func (m *Model) NumFeatures() int { return m.Weights.Rows }

func colMeans(a *mat.Dense) []float64 {
	out := make([]float64, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	for j := range out {
		out[j] /= float64(a.Rows)
	}
	return out
}
