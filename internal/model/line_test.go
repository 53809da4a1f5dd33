package model

import (
	"fmt"
	"math"
	"testing"

	"tesla/internal/mat"
	"tesla/internal/rng"
)

// cascadeOracle is the model cascade as it ran before the history/set-point
// split: every feature of every regression summed in one pass per call. It is
// the reference Line and EvalSeq are checked against.
func cascadeOracle(m *Model, h *History, setpoints []float64) (*Prediction, error) {
	if err := m.ValidateHistory(h); err != nil {
		return nil, err
	}
	if len(setpoints) != m.cfg.L {
		return nil, fmt.Errorf("model: %d set-points for horizon %d", len(setpoints), m.cfg.L)
	}
	L, na, nd := m.cfg.L, m.na, m.nd
	sc := m.scale

	xp := make([]float64, L)
	for j := 0; j < L; j++ {
		xp[j] = sc.pow(h.AvgPower[L-1-j])
	}
	pHatN := m.asp.Predict(xp)

	spN := make([]float64, L)
	for i, s := range setpoints {
		spN[i] = sc.sp(s)
	}
	zAcu := make([]float64, na*L)
	for a := 0; a < na; a++ {
		for j := 0; j < L; j++ {
			zAcu[a*L+j] = sc.temp(h.ACUTemps[a][L-1-j])
		}
	}
	aHatN := mat.New(L, na)
	xa := make([]float64, 2+na*L)
	copy(xa[2:], zAcu)
	for l := 1; l <= L; l++ {
		xa[0] = spN[l-1]
		xa[1] = pHatN[l-1]
		m.acu[l-1].PredictInto(xa, aHatN.Row(l-1))
	}

	zDC := make([]float64, nd*L)
	for k := 0; k < nd; k++ {
		for j := 0; j < L; j++ {
			zDC[k*L+j] = sc.temp(h.DCTemps[k][L-1-j])
		}
	}
	dHatN := mat.New(L, nd)
	xd := make([]float64, 1+na+nd*L)
	copy(xd[1+na:], zDC)
	for l := 1; l <= L; l++ {
		xd[0] = pHatN[l-1]
		copy(xd[1:1+na], aHatN.Row(l-1))
		m.dcs[l-1].PredictInto(xd, dHatN.Row(l-1))
	}

	xe := make([]float64, L+na*L)
	copy(xe, spN)
	for a := 0; a < na; a++ {
		for j := 0; j < L; j++ {
			xe[L+a*L+j] = aHatN.At(j, a)
		}
	}
	eN := m.energy.Predict(xe)[0]

	p := &Prediction{Setpoint: setpoints[len(setpoints)-1]}
	p.AvgPower = make([]float64, L)
	for l := 0; l < L; l++ {
		p.AvgPower[l] = sc.unPow(pHatN[l])
	}
	p.ACUTemps = mat.New(L, na)
	for l := 0; l < L; l++ {
		for a := 0; a < na; a++ {
			p.ACUTemps.Set(l, a, sc.unTemp(aHatN.At(l, a)))
		}
	}
	p.DCTemps = mat.New(L, nd)
	for l := 0; l < L; l++ {
		for k := 0; k < nd; k++ {
			p.DCTemps.Set(l, k, sc.unTemp(dHatN.At(l, k)))
		}
	}
	p.EnergyKWh = sc.unEnergy(eN)
	if p.EnergyKWh < 0 {
		p.EnergyKWh = 0
	}
	p.EnergyNorm = sc.energy(p.EnergyKWh)

	p.Interruption = m.interruption(setpoints, p.ACUTemps)
	p.InterruptionNorm = p.Interruption / m.TempRangeC()
	p.Constraint = m.constraint(p.DCTemps)
	return p, nil
}

// lineModel trains a model on a synthetic trace with nd DC sensors (the
// first two in the cold aisle) and horizon L.
func lineModel(t testing.TB, nd, L int, seed uint64) (*Model, *History) {
	t.Helper()
	tr := syntheticTraceND(700, nd, seed)
	train, _ := tr.Split(0.8)
	cfg := DefaultConfig(2)
	cfg.L = L
	m, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := HistoryAt(train, train.Len()-1, L)
	if err != nil {
		t.Fatal(err)
	}
	return m, h
}

// randomHistory draws every sample of an L-step history uniformly over the
// model's normalization ranges, widened by a tenth on each side.
func randomHistory(m *Model, r *rng.Rand) *History {
	L := m.cfg.L
	sc := m.scale
	draw := func(lo, hi float64) float64 {
		w := hi - lo
		return lo - 0.1*w + 1.2*w*r.Float64()
	}
	h := &History{AvgPower: make([]float64, L)}
	for j := range h.AvgPower {
		h.AvgPower[j] = draw(sc.PowMin, sc.PowMax)
	}
	h.ACUTemps = make([][]float64, m.na)
	for a := range h.ACUTemps {
		h.ACUTemps[a] = make([]float64, L)
		for j := range h.ACUTemps[a] {
			h.ACUTemps[a][j] = draw(sc.TempMin, sc.TempMax)
		}
	}
	h.DCTemps = make([][]float64, m.nd)
	for k := range h.DCTemps {
		h.DCTemps[k] = make([]float64, L)
		for j := range h.DCTemps[k] {
			h.DCTemps[k][j] = draw(sc.TempMin, sc.TempMax)
		}
	}
	return h
}

// checkAgainstOracle compares one evaluation with the oracle's: temperatures,
// D̂ and Ĉ to 1e-12 of the temperature span, Ê to 1e-12 of the energy span,
// and the set-point-independent power trajectory exactly.
func checkAgainstOracle(t *testing.T, m *Model, got, want *Prediction, what string) {
	t.Helper()
	tTol := 1e-12 * m.TempRangeC()
	eTol := 1e-12 * m.EnergyRangeKWh()
	near := func(name string, a, b, tol float64) {
		t.Helper()
		if d := math.Abs(a - b); !(d <= tol) {
			t.Fatalf("%s: %s = %.17g, oracle %.17g (|Δ| %g > %g)", what, name, a, b, d, tol)
		}
	}
	for l := range want.AvgPower {
		if got.AvgPower[l] != want.AvgPower[l] {
			t.Fatalf("%s: p̂[%d] = %.17g, oracle %.17g", what, l, got.AvgPower[l], want.AvgPower[l])
		}
	}
	for i := range want.ACUTemps.Data {
		near(fmt.Sprintf("â[%d]", i), got.ACUTemps.Data[i], want.ACUTemps.Data[i], tTol)
	}
	for i := range want.DCTemps.Data {
		near(fmt.Sprintf("d̂[%d]", i), got.DCTemps.Data[i], want.DCTemps.Data[i], tTol)
	}
	near("Ê", got.EnergyKWh, want.EnergyKWh, eTol)
	near("Ê_norm", got.EnergyNorm, want.EnergyNorm, 1e-12)
	near("D̂", got.Interruption, want.Interruption, tTol)
	near("D̂_norm", got.InterruptionNorm, want.InterruptionNorm, 1e-12)
	near("Ĉ", got.Constraint, want.Constraint, tTol)
	if got.Setpoint != want.Setpoint {
		t.Fatalf("%s: set-point %g, oracle %g", what, got.Setpoint, want.Setpoint)
	}
}

// TestLineMatchesCascadeOracle checks Line.Eval and Line.EvalSeq, and the
// Predict/PredictSeq wrappers over them, against the one-pass cascade on
// random histories, set-points across [S_min, S_max] and random sequences.
// The sweep must reach the energy clamp, where Ê is cut at 0.
func TestLineMatchesCascadeOracle(t *testing.T) {
	for _, shape := range []struct{ nd, L int }{{4, 6}, {9, 12}} {
		m, trained := lineModel(t, shape.nd, shape.L, 21)
		r := rng.New(uint64(100 + shape.nd))
		sc := m.scale
		var p Prediction // reused by every evaluation
		var evals, clamped int
		for hi := 0; hi < 25; hi++ {
			h := trained
			if hi > 0 {
				h = randomHistory(m, r)
			}
			ln, err := m.Line(h)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i <= 40; i++ {
				x := sc.SpMin + (sc.SpMax-sc.SpMin)*float64(i)/40
				want, err := cascadeOracle(m, h, constSeq(x, m.cfg.L))
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("shape %+v history %d x=%g", shape, hi, x)
				ln.Eval(x, &p)
				checkAgainstOracle(t, m, &p, want, what)
				got, err := m.Predict(h, x)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, m, got, want, what+" (Predict)")
				evals++
				if want.EnergyKWh == 0 {
					clamped++
				}
			}
			for i := 0; i < 10; i++ {
				sps := make([]float64, m.cfg.L)
				for j := range sps {
					sps[j] = sc.SpMin + (sc.SpMax-sc.SpMin)*r.Float64()
				}
				want, err := cascadeOracle(m, h, sps)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("shape %+v history %d sequence %d", shape, hi, i)
				ln.EvalSeq(sps, &p)
				checkAgainstOracle(t, m, &p, want, what)
				got, err := m.PredictSeq(h, sps)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, m, got, want, what+" (PredictSeq)")
			}
		}
		if clamped == 0 || clamped == evals {
			t.Fatalf("shape %+v: %d of %d evaluations clamped; the sweep must cover both sides of the energy clamp", shape, clamped, evals)
		}
		t.Logf("shape %+v: %d of %d constant-set-point evaluations at the energy clamp", shape, clamped, evals)
	}
}

func constSeq(x float64, L int) []float64 {
	s := make([]float64, L)
	for i := range s {
		s[i] = x
	}
	return s
}

// TestLineEvalDoesNotAllocate checks that evaluating a candidate into a
// Prediction that already has the model's shape allocates nothing.
func TestLineEvalDoesNotAllocate(t *testing.T) {
	m, h := lineModel(t, 4, 6, 22)
	ln, err := m.Line(h)
	if err != nil {
		t.Fatal(err)
	}
	var p Prediction
	ln.Eval(m.scale.SpMin, &p)
	x := m.scale.SpMin
	if n := testing.AllocsPerRun(100, func() {
		x += 0.01
		ln.Eval(x, &p)
	}); n != 0 {
		t.Fatalf("Line.Eval made %g allocations per call into a reused Prediction", n)
	}
	sps := constSeq(m.scale.SpMax, m.cfg.L)
	if n := testing.AllocsPerRun(100, func() { ln.EvalSeq(sps, &p) }); n != 0 {
		t.Fatalf("Line.EvalSeq made %g allocations per call into a reused Prediction", n)
	}
}

// TestLineRejectsBadInput checks that Line refuses a history the model
// rejects and EvalSeq a sequence that is not one horizon long.
func TestLineRejectsBadInput(t *testing.T) {
	m, h := lineModel(t, 4, 6, 23)
	bad := *h
	bad.DCTemps = bad.DCTemps[:len(bad.DCTemps)-1]
	if _, err := m.Line(&bad); err == nil {
		t.Fatal("Line accepted a history with a DC series missing")
	}
	ln, err := m.Line(h)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EvalSeq accepted a sequence shorter than the horizon")
		}
	}()
	ln.EvalSeq([]float64{25}, new(Prediction))
}
