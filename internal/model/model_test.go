package model

import (
	"math"
	"testing"

	"tesla/internal/dataset"
	"tesla/internal/rng"
	"tesla/internal/stats"
	"tesla/internal/testbed"
)

// syntheticTrace generates a small trace with simple, learnable dynamics:
// the inlet temperature relaxes toward the set-point, DC sensors follow the
// inlet with per-sensor offsets influenced by server power, and ACU power
// falls linearly with the set-point/inlet residual.
func syntheticTrace(n int, seed uint64) *dataset.Trace { return syntheticTraceND(n, 4, seed) }

// syntheticTraceND is syntheticTrace with nd DC sensors; the last one is the
// cold-aisle maximum.
func syntheticTraceND(n, nd int, seed uint64) *dataset.Trace {
	r := rng.New(seed)
	tr := dataset.NewTrace(60, 2, nd)
	a := []float64{24, 24}
	sp := 24.0
	p := 0.15
	for i := 0; i < n; i++ {
		if i%7 == 0 {
			sp = 21 + 8*r.Float64()
		}
		p = stats.Clamp(p+0.004*r.Norm(), 0.1, 0.3)
		for j := range a {
			a[j] = 0.85*a[j] + 0.15*sp + 0.8*(p-0.2) + 0.03*r.Norm()
		}
		dc := make([]float64, nd)
		for k := range dc {
			dc[k] = a[0] - 3 + 0.4*float64(k) + 2*p + 0.03*r.Norm()
		}
		power := math.Max(0.1, 1.8-0.45*(sp-a[0]))
		tr.Append(testbed.Sample{
			TimeS:        float64(i) * 60,
			SetpointC:    sp,
			AvgServerKW:  p,
			ACUPowerKW:   power,
			ACUTemps:     append([]float64(nil), a...),
			DCTemps:      dc,
			MaxColdAisle: dc[nd-1],
		})
	}
	return tr
}

func smallConfig() Config {
	cfg := DefaultConfig(2)
	cfg.L = 6
	return cfg
}

func trainSmall(t *testing.T, seed uint64) (*Model, *dataset.Trace, *dataset.Trace) {
	t.Helper()
	tr := syntheticTrace(700, seed)
	train, test := tr.Split(0.7)
	m, err := Train(train, smallConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return m, train, test
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig(11)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.L = 0
	if bad.Validate() == nil {
		t.Fatalf("L=0 accepted")
	}
	bad = good
	bad.AlphaDCS = -1
	if bad.Validate() == nil {
		t.Fatalf("negative alpha accepted")
	}
	bad = good
	bad.Stride = 0
	if bad.Validate() == nil {
		t.Fatalf("stride 0 accepted")
	}
	bad = good
	bad.ColdIdx = nil
	if bad.Validate() == nil {
		t.Fatalf("empty cold set accepted")
	}
}

func TestTrainErrors(t *testing.T) {
	tiny := syntheticTrace(10, 1)
	if _, err := Train(tiny, smallConfig()); err == nil {
		t.Fatalf("too-short trace accepted")
	}
	tr := syntheticTrace(200, 1)
	cfg := smallConfig()
	cfg.ColdIdx = []int{99}
	if _, err := Train(tr, cfg); err == nil {
		t.Fatalf("out-of-range cold index accepted")
	}
}

func TestPredictionAccuracyOnSynthetic(t *testing.T) {
	m, _, test := trainSmall(t, 2)
	L := m.Config().L
	var predT, truthT, predE, truthE []float64
	for ti := L - 1; ti+L < test.Len(); ti += 3 {
		h, err := HistoryAt(test, ti, L)
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.PredictSeq(h, test.Setpoint[ti+1:ti+1+L])
		if err != nil {
			t.Fatal(err)
		}
		for l := 1; l <= L; l++ {
			for k := 0; k < test.Nd(); k++ {
				predT = append(predT, p.DCTemps.At(l-1, k))
				truthT = append(truthT, test.DCTemps[k][ti+l])
			}
		}
		predE = append(predE, p.EnergyKWh)
		truthE = append(truthE, test.EnergyKWh(ti+1, ti+1+L))
	}
	mapeT, err := stats.MAPE(predT, truthT)
	if err != nil {
		t.Fatal(err)
	}
	if mapeT > 5 {
		t.Fatalf("temperature MAPE %g%% too high on learnable synthetic dynamics", mapeT)
	}
	mapeE, err := stats.MAPE(predE, truthE)
	if err != nil {
		t.Fatal(err)
	}
	if mapeE > 15 {
		t.Fatalf("energy MAPE %g%% too high", mapeE)
	}
}

func TestInterruptionProxyActivatesAboveInlet(t *testing.T) {
	m, train, _ := trainSmall(t, 3)
	L := m.Config().L
	h, err := HistoryAt(train, train.Len()-1, L)
	if err != nil {
		t.Fatal(err)
	}
	inletNow := h.ACUTemps[0][L-1]
	low, err := m.Predict(h, inletNow-3)
	if err != nil {
		t.Fatal(err)
	}
	high, err := m.Predict(h, inletNow+6)
	if err != nil {
		t.Fatal(err)
	}
	if low.Interruption != 0 {
		t.Fatalf("set-point below inlet should carry no interruption, got %g", low.Interruption)
	}
	if high.Interruption <= 0 {
		t.Fatalf("set-point far above inlet should be penalized")
	}
	if high.InterruptionNorm <= 0 || high.InterruptionNorm != high.Interruption/m.TempRangeC() {
		t.Fatalf("normalized interruption inconsistent")
	}
}

func TestObjectiveIsNormalizedSum(t *testing.T) {
	m, train, _ := trainSmall(t, 4)
	h, _ := HistoryAt(train, train.Len()-1, m.Config().L)
	p, err := m.Predict(h, 26)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Objective()-(p.EnergyNorm+p.InterruptionNorm)) > 1e-12 {
		t.Fatalf("Objective != EnergyNorm + InterruptionNorm")
	}
	if math.Abs(m.NormEnergy(p.EnergyKWh)-p.EnergyNorm) > 1e-9 {
		t.Fatalf("NormEnergy inconsistent with prediction")
	}
}

func TestConstraintUsesOnlyColdSensors(t *testing.T) {
	// Train two models differing only in which sensors count as cold aisle;
	// with per-sensor offsets the constraint must differ.
	tr := syntheticTrace(700, 5)
	train, _ := tr.Split(0.7)
	cfgLow := smallConfig()
	cfgLow.ColdIdx = []int{0} // coolest sensor
	cfgHigh := smallConfig()
	cfgHigh.ColdIdx = []int{3} // warmest sensor
	mLow, err := Train(train, cfgLow)
	if err != nil {
		t.Fatal(err)
	}
	mHigh, err := Train(train, cfgHigh)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := HistoryAt(train, train.Len()-1, cfgLow.L)
	pLow, _ := mLow.Predict(h, 25)
	pHigh, _ := mHigh.Predict(h, 25)
	if pHigh.Constraint <= pLow.Constraint {
		t.Fatalf("warmer cold-aisle set should give a larger constraint: %g vs %g",
			pHigh.Constraint, pLow.Constraint)
	}
}

func TestHigherSetpointPredictsLessEnergy(t *testing.T) {
	m, train, _ := trainSmall(t, 6)
	h, _ := HistoryAt(train, train.Len()-1, m.Config().L)
	lo, _ := m.Predict(h, 22)
	hi, _ := m.Predict(h, 27)
	if hi.EnergyKWh >= lo.EnergyKWh {
		t.Fatalf("energy model lost the set-point slope: E(22)=%g E(27)=%g", lo.EnergyKWh, hi.EnergyKWh)
	}
}

func TestValidateHistoryErrors(t *testing.T) {
	m, train, _ := trainSmall(t, 7)
	L := m.Config().L
	h, _ := HistoryAt(train, train.Len()-1, L)

	bad := *h
	bad.AvgPower = bad.AvgPower[:L-1]
	if m.ValidateHistory(&bad) == nil {
		t.Fatalf("short power history accepted")
	}
	bad = *h
	bad.ACUTemps = bad.ACUTemps[:1]
	if m.ValidateHistory(&bad) == nil {
		t.Fatalf("missing ACU series accepted")
	}
	bad = *h
	bad.DCTemps = append([][]float64{}, bad.DCTemps...)
	bad.DCTemps[0] = bad.DCTemps[0][:2]
	if m.ValidateHistory(&bad) == nil {
		t.Fatalf("short DC series accepted")
	}
	if _, err := m.PredictSeq(h, []float64{25}); err == nil {
		t.Fatalf("wrong set-point sequence length accepted")
	}
}

func TestHistoryAtBounds(t *testing.T) {
	tr := syntheticTrace(50, 8)
	if _, err := HistoryAt(tr, 3, 6); err == nil {
		t.Fatalf("window before trace start accepted")
	}
	if _, err := HistoryAt(tr, 50, 6); err == nil {
		t.Fatalf("window past trace end accepted")
	}
	h, err := HistoryAt(tr, 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	if h.AvgPower[5] != tr.AvgPower[10] {
		t.Fatalf("history newest sample misaligned")
	}
}

func TestModelAccessors(t *testing.T) {
	m, _, _ := trainSmall(t, 9)
	if m.Na() != 2 || m.Nd() != 4 {
		t.Fatalf("Na/Nd = %d/%d", m.Na(), m.Nd())
	}
	if m.TempRangeC() <= 0 || m.EnergyRangeKWh() <= 0 {
		t.Fatalf("scale accessors must be positive")
	}
	if m.Config().L != 6 {
		t.Fatalf("Config roundtrip wrong")
	}
}
