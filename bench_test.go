package tesla

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§5–6). Each benchmark reports the quantities the paper's
// artifact prints (MAPE %, kWh, TSV %, CI %) via b.ReportMetric so a
// `go test -bench=. -benchmem` run reproduces the full evaluation:
//
//	BenchmarkTable3   — DC temperature MAPE (TESLA vs Lazic vs Wang)
//	BenchmarkTable4   — cooling energy MAPE (TESLA vs MLP vs GBT vs RF)
//	BenchmarkTable5   — end-to-end CE / TSV / CI for all four policies
//	BenchmarkFigure2..12 — the time-series figures
//	BenchmarkAblation* — the design-choice ablations listed in DESIGN.md
//
// Everything runs at CI scale (a 3-day training sweep, 12-hour control
// windows) so the whole suite completes in minutes; cmd/teslabench exposes
// the same generators with a -scale paper flag.

import (
	"sync"
	"testing"

	"tesla/internal/control"
	"tesla/internal/experiment"
	"tesla/internal/workload"
)

var (
	benchOnce sync.Once
	benchArt  *experiment.Artifacts
	benchErr  error
)

func benchArtifacts(b *testing.B) *experiment.Artifacts {
	b.Helper()
	benchOnce.Do(func() {
		benchArt, benchErr = experiment.Prepare(experiment.CIScale(), true)
	})
	if benchErr != nil {
		b.Fatalf("Prepare: %v", benchErr)
	}
	return benchArt
}

func BenchmarkTable3(b *testing.B) {
	art := benchArtifacts(b)
	b.ResetTimer()
	var res experiment.Table3Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.Table3(art, 9)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TESLAMape, "tesla_mape_%")
	b.ReportMetric(res.LazicMape, "lazic_mape_%")
	b.ReportMetric(res.WangMape, "wang_mape_%")
}

func BenchmarkTable4(b *testing.B) {
	art := benchArtifacts(b)
	b.ResetTimer()
	var res experiment.Table4Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.Table4(art, 9)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TESLAMape, "tesla_mape_%")
	b.ReportMetric(res.MLPMape, "mlp_mape_%")
	b.ReportMetric(res.GBTMape, "xgboost_mape_%")
	b.ReportMetric(res.ForestMape, "forest_mape_%")
}

// benchPolicyRun runs one 12-hour policy×load cell of Table 5.
func benchPolicyRun(b *testing.B, policy string, load workload.Setting) {
	art := benchArtifacts(b)
	b.ResetTimer()
	var m experiment.Metrics
	for i := 0; i < b.N; i++ {
		var p control.Policy
		var err error
		switch policy {
		case "fixed":
			p = control.Fixed{SetpointC: 23}
		case "tesla":
			p, err = art.NewTESLAPolicy(uint64(100 + load))
		case "lazic":
			p, err = art.NewLazicPolicy()
		case "tsrl":
			p = art.TSRL
		}
		if err != nil {
			b.Fatal(err)
		}
		rc := experiment.DefaultRunConfig(p, load, uint64(100+load))
		_, m, err = experiment.Run(rc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.CEkWh, "CE_kWh")
	b.ReportMetric(100*m.TSVFrac, "TSV_%")
	b.ReportMetric(100*m.CIFrac, "CI_%")
	b.ReportMetric(m.MeanSp, "mean_setpoint_C")
}

// Table 5: one sub-benchmark per cell so the -bench output lists the whole
// table. The CE-saving column follows from the fixed-policy rows.
func BenchmarkTable5(b *testing.B) {
	for _, load := range []workload.Setting{workload.Idle, workload.Medium, workload.High} {
		for _, policy := range []string{"fixed", "tesla", "lazic", "tsrl"} {
			load, policy := load, policy
			b.Run(load.String()+"/"+policy, func(b *testing.B) {
				benchPolicyRun(b, policy, load)
			})
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		f, err := experiment.Figure2(3)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := f.Series[0].Y[0], f.Series[0].Y[0]
		for _, v := range f.Series[0].Y {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		spread = hi - lo
	}
	b.ReportMetric(spread, "power_spread_kW")
}

func BenchmarkFigure3(b *testing.B) {
	var rise float64
	for i := 0; i < b.N; i++ {
		_, fb, err := experiment.Figure3(4)
		if err != nil {
			b.Fatal(err)
		}
		cold := fb.Series[0].Y
		rise = (cold[9] - cold[0]) / 9
	}
	b.ReportMetric(rise, "rise_C_per_min")
}

func BenchmarkFigure4(b *testing.B) {
	var extra float64
	for i := 0; i < b.N; i++ {
		_, fb, err := experiment.Figure4(5)
		if err != nil {
			b.Fatal(err)
		}
		p := fb.Series[0].Y
		before, during := 0.0, 0.0
		for _, v := range p[:12] {
			before += v
		}
		for _, v := range p[12:24] {
			during += v
		}
		extra = during/12 - before/12
	}
	b.ReportMetric(extra, "dip_extra_kW")
}

func BenchmarkFigure8(b *testing.B) {
	art := benchArtifacts(b)
	b.ResetTimer()
	var snaps int
	for i := 0; i < b.N; i++ {
		figs, err := experiment.Figure8(art, 10800, 7)
		if err != nil {
			b.Fatal(err)
		}
		snaps = len(figs) - 1
	}
	b.ReportMetric(float64(snaps), "gp_snapshots")
}

// benchPolicyFigure regenerates one of Figures 9–12 (12-hour medium-load
// trace of a policy).
func benchPolicyFigure(b *testing.B, make func() (control.Policy, error), id string) {
	var m experiment.Metrics
	for i := 0; i < b.N; i++ {
		p, err := make()
		if err != nil {
			b.Fatal(err)
		}
		_, m, err = experiment.PolicyFigures(p, id, 43200, 9)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.CEkWh, "CE_kWh")
	b.ReportMetric(100*m.TSVFrac, "TSV_%")
}

func BenchmarkFigure9(b *testing.B) {
	art := benchArtifacts(b)
	b.ResetTimer()
	benchPolicyFigure(b, func() (control.Policy, error) { return art.NewTESLAPolicy(9) }, "fig9")
}

func BenchmarkFigure10(b *testing.B) {
	benchArtifacts(b)
	b.ResetTimer()
	benchPolicyFigure(b, func() (control.Policy, error) { return control.Fixed{SetpointC: 23}, nil }, "fig10")
}

func BenchmarkFigure11(b *testing.B) {
	art := benchArtifacts(b)
	b.ResetTimer()
	benchPolicyFigure(b, func() (control.Policy, error) { return art.NewLazicPolicy() }, "fig11")
}

func BenchmarkFigure12(b *testing.B) {
	art := benchArtifacts(b)
	b.ResetTimer()
	benchPolicyFigure(b, func() (control.Policy, error) { return art.TSRL, nil }, "fig12")
}

// BenchmarkAblationNoInterruptionPenalty removes D̂ from the objective
// (κ→∞ equivalent): the DESIGN.md ablation showing where the thermal-safety
// margin comes from.
func BenchmarkAblationNoInterruptionPenalty(b *testing.B) {
	art := benchArtifacts(b)
	b.ResetTimer()
	var m experiment.Metrics
	for i := 0; i < b.N; i++ {
		cfg := control.DefaultTESLAConfig(20, 35)
		cfg.InterruptionWeight = 0
		p, err := control.NewTESLA(art.Model, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rc := experiment.DefaultRunConfig(p, workload.Medium, 101)
		_, m, err = experiment.Run(rc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.CEkWh, "CE_kWh")
	b.ReportMetric(100*m.TSVFrac, "TSV_%")
	b.ReportMetric(100*m.CIFrac, "CI_%")
}

// BenchmarkAblationNoSmoothing shrinks the smoothing buffer to length 1
// (§3.4 off): set-point churn feeds straight into the PID.
func BenchmarkAblationNoSmoothing(b *testing.B) {
	art := benchArtifacts(b)
	b.ResetTimer()
	var m experiment.Metrics
	for i := 0; i < b.N; i++ {
		cfg := control.DefaultTESLAConfig(20, 35)
		cfg.SmoothN = 1
		p, err := control.NewTESLA(art.Model, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rc := experiment.DefaultRunConfig(p, workload.Medium, 101)
		_, m, err = experiment.Run(rc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.CEkWh, "CE_kWh")
	b.ReportMetric(100*m.TSVFrac, "TSV_%")
}

// BenchmarkAblationNoErrorAwareness collapses the feasibility margin
// (FeasProb → 0.5, i.e. trust the point prediction): the modeling-error
// awareness of §3.3 off.
func BenchmarkAblationNoErrorAwareness(b *testing.B) {
	art := benchArtifacts(b)
	b.ResetTimer()
	var m experiment.Metrics
	for i := 0; i < b.N; i++ {
		cfg := control.DefaultTESLAConfig(20, 35)
		cfg.BO.FeasProb = 0.5
		cfg.ConstraintMarginC = 0
		p, err := control.NewTESLA(art.Model, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rc := experiment.DefaultRunConfig(p, workload.Medium, 101)
		_, m, err = experiment.Run(rc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.CEkWh, "CE_kWh")
	b.ReportMetric(100*m.TSVFrac, "TSV_%")
}

// BenchmarkExtensionDeferral runs the §8 future-work extension: TESLA plus
// power-budget admission of deferrable batch jobs, reporting the peak
// shaving the scheduler buys.
func BenchmarkExtensionDeferral(b *testing.B) {
	art := benchArtifacts(b)
	b.ResetTimer()
	var study experiment.DeferralStudy
	for i := 0; i < b.N; i++ {
		var err error
		study, err = experiment.RunDeferralStudy(art, 4, 51)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(study.Immediate.PeakITKW, "peak_IT_immediate_kW")
	b.ReportMetric(study.Deferred.PeakITKW, "peak_IT_deferred_kW")
	b.ReportMetric(study.Deferred.CEkWh, "CE_deferred_kWh")
}

// BenchmarkModelPredict measures the per-step cost of the DC time-series
// model cascade — the inner loop of the controller.
func BenchmarkModelPredict(b *testing.B) {
	art := benchArtifacts(b)
	L := art.Model.Config().L
	h, err := historyFromTest(art, L)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := art.Model.Predict(h, 25); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControllerDecide measures one full TESLA control step (model +
// error monitor + constrained-NEI BO + smoothing).
func BenchmarkControllerDecide(b *testing.B) {
	art := benchArtifacts(b)
	p, err := art.NewTESLAPolicy(1)
	if err != nil {
		b.Fatal(err)
	}
	test := art.Test
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step := art.Model.Config().L + i%(test.Len()-2*art.Model.Config().L)
		p.Decide(test, step)
	}
}
