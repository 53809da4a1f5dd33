package model

import "testing"

// BenchmarkTrain measures fitting all four sub-modules on a small synthetic
// trace (the blocked-Gram path included).
func BenchmarkTrain(b *testing.B) {
	tr := syntheticTrace(700, 42)
	train, _ := tr.Split(0.8)
	cfg := smallConfigForBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(train, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict measures one stand-alone cascade evaluation (ASP → ACU →
// DCS → energy): a Line build plus one Eval, as PredictSeq pays per window in
// the accuracy tables. The optimizer builds one Line per control step and
// evaluates its candidates on it (BenchmarkDecideModel).
func BenchmarkPredict(b *testing.B) {
	tr := syntheticTrace(700, 42)
	train, _ := tr.Split(0.8)
	cfg := smallConfigForBench()
	m, err := Train(train, cfg)
	if err != nil {
		b.Fatal(err)
	}
	h, err := HistoryAt(train, train.Len()-1, cfg.L)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(h, 25); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecideModel measures the model's share of one TESLA decision at
// the paper's shape (L=20, Na=2, Nd=35): one Line build for the step's
// history plus 16 candidate evaluations into one reused Prediction: the 15
// bo.DefaultConfig's optimizer makes and the one logged for the chosen
// set-point.
func BenchmarkDecideModel(b *testing.B) {
	m, h := lineModel(b, 35, 20, 42)
	const evals = 16
	lo, hi := m.scale.SpMin, m.scale.SpMax
	var p Prediction
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ln, err := m.Line(h)
		if err != nil {
			b.Fatal(err)
		}
		for e := 0; e < evals; e++ {
			ln.Eval(lo+(hi-lo)*float64(e)/(evals-1), &p)
		}
	}
}

func smallConfigForBench() Config {
	cfg := DefaultConfig(2)
	cfg.L = 6
	return cfg
}
