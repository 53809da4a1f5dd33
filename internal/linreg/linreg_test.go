package linreg

import (
	"math"
	"testing"
	"testing/quick"

	"tesla/internal/mat"
	"tesla/internal/rng"
)

func TestOLSRecoversExactLinearMap(t *testing.T) {
	r := rng.New(1)
	n, d := 50, 3
	x := mat.New(n, d)
	y := mat.New(n, 2)
	wTrue := [][]float64{{2, -1}, {0.5, 3}, {-4, 0}}
	bTrue := []float64{1, -2}
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = r.Norm()
		}
		for o := 0; o < 2; o++ {
			v := bTrue[o]
			for j := 0; j < d; j++ {
				v += wTrue[j][o] * row[j]
			}
			y.Set(i, o, v)
		}
	}
	m, err := Fit(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < d; j++ {
		for o := 0; o < 2; o++ {
			if math.Abs(m.Weights.At(j, o)-wTrue[j][o]) > 1e-8 {
				t.Fatalf("weight (%d,%d) = %g, want %g", j, o, m.Weights.At(j, o), wTrue[j][o])
			}
		}
	}
	for o, b := range bTrue {
		if math.Abs(m.Bias[o]-b) > 1e-8 {
			t.Fatalf("bias %d = %g, want %g", o, m.Bias[o], b)
		}
	}
}

func TestPredictMatchesManual(t *testing.T) {
	x := mat.NewFromSlice(3, 1, []float64{0, 1, 2})
	y := mat.NewFromSlice(3, 1, []float64{1, 3, 5}) // y = 2x+1
	m, err := Fit(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{10})[0]; math.Abs(got-21) > 1e-9 {
		t.Fatalf("Predict(10) = %g, want 21", got)
	}
	out := make([]float64, 1)
	if got := m.PredictInto([]float64{10}, out)[0]; math.Abs(got-21) > 1e-9 {
		t.Fatalf("PredictInto = %g", got)
	}
	batch := m.PredictBatch(x)
	for i := 0; i < 3; i++ {
		if math.Abs(batch.At(i, 0)-y.At(i, 0)) > 1e-9 {
			t.Fatalf("batch[%d] = %g", i, batch.At(i, 0))
		}
	}
}

func TestRidgeShrinksWeights(t *testing.T) {
	r := rng.New(2)
	n := 40
	x := mat.New(n, 2)
	y := mat.New(n, 1)
	for i := 0; i < n; i++ {
		x.Set(i, 0, r.Norm())
		x.Set(i, 1, r.Norm())
		y.Set(i, 0, 3*x.At(i, 0)-2*x.At(i, 1)+0.1*r.Norm())
	}
	ols, _ := Fit(x, y, 0)
	ridge, _ := Fit(x, y, 100)
	normOLS := math.Hypot(ols.Weights.At(0, 0), ols.Weights.At(1, 0))
	normRidge := math.Hypot(ridge.Weights.At(0, 0), ridge.Weights.At(1, 0))
	if normRidge >= normOLS {
		t.Fatalf("ridge did not shrink: %g vs %g", normRidge, normOLS)
	}
	if ridge.Alpha != 100 {
		t.Fatalf("Alpha not recorded")
	}
}

func TestBiasIsUnpenalized(t *testing.T) {
	// Pure-intercept data: even huge ridge must recover the mean exactly,
	// because the intercept is excluded from the penalty.
	x := mat.NewFromSlice(4, 1, []float64{1, 2, 3, 4})
	y := mat.NewFromSlice(4, 1, []float64{10, 10, 10, 10})
	m, err := Fit(x, y, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Predict([]float64{2.5})[0]-10) > 1e-6 {
		t.Fatalf("huge ridge should still fit the constant: %g", m.Predict([]float64{2.5})[0])
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(mat.New(3, 2), mat.New(4, 1), 0); err == nil {
		t.Fatalf("row mismatch accepted")
	}
	if _, err := Fit(mat.New(0, 2), mat.New(0, 1), 0); err == nil {
		t.Fatalf("empty design accepted")
	}
	if _, err := Fit(mat.New(3, 2), mat.New(3, 1), -1); err == nil {
		t.Fatalf("negative alpha accepted")
	}
}

func TestPredictPanicsOnWrongLength(t *testing.T) {
	x := mat.NewFromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	y := mat.NewFromSlice(3, 1, []float64{1, 2, 3})
	m, _ := Fit(x, y, 1)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	m.Predict([]float64{1})
}

// TestPredictIntoAndBatchRejectShortFeatures checks the length guard on the
// buffered and batched paths: a short vector used to predict silently from a
// prefix of the weights.
func TestPredictIntoAndBatchRejectShortFeatures(t *testing.T) {
	x := mat.NewFromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	y := mat.NewFromSlice(3, 1, []float64{1, 2, 3})
	m, _ := Fit(x, y, 1)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: short feature vector accepted", name)
			}
		}()
		f()
	}
	mustPanic("PredictInto", func() { m.PredictInto([]float64{1}, make([]float64, 1)) })
	mustPanic("PredictBatch", func() { m.PredictBatch(mat.NewFromSlice(2, 1, []float64{1, 2})) })
}

func TestAccessors(t *testing.T) {
	x := mat.NewFromSlice(3, 2, []float64{1, 2, 3, 4, 5, 7})
	y := mat.NewFromSlice(3, 1, []float64{1, 2, 3})
	m, _ := Fit(x, y, 1)
	if m.NumFeatures() != 2 || m.NumOutputs() != 1 {
		t.Fatalf("accessors wrong: %d/%d", m.NumFeatures(), m.NumOutputs())
	}
}

func TestPredictionIsAffineProperty(t *testing.T) {
	// Property: model(αa + (1-α)b) = α·model(a) + (1-α)·model(b).
	r := rng.New(5)
	x := mat.New(30, 3)
	y := mat.New(30, 2)
	for i := 0; i < 30; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, r.Norm())
		}
		y.Set(i, 0, r.Norm())
		y.Set(i, 1, r.Norm())
	}
	m, err := Fit(x, y, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		a := []float64{rr.Norm(), rr.Norm(), rr.Norm()}
		b := []float64{rr.Norm(), rr.Norm(), rr.Norm()}
		alpha := rr.Float64()
		mix := make([]float64, 3)
		for j := range mix {
			mix[j] = alpha*a[j] + (1-alpha)*b[j]
		}
		pa, pb, pm := m.Predict(a), m.Predict(b), m.Predict(mix)
		for o := range pm {
			if math.Abs(pm[o]-(alpha*pa[o]+(1-alpha)*pb[o])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
