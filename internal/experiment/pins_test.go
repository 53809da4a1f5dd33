package experiment

import (
	"sync"
	"testing"

	"tesla/internal/workload"
)

// The digests below pin what goldenTrajectoryHash does not see: the
// accounted metrics of the golden run, Figure 8, both legs of the deferral
// study and two fault-matrix rows. Each is an FNV-1a fold (fnv1a) of the
// values' float64 bit patterns, so a change that moves any accumulated bit —
// the order of an addition, a dropped step, a different TSV threshold —
// changes the digest. They were pinned before the experiment loops moved
// onto fleet.Loop and must never be re-pinned for a refactor.
const (
	pinGoldenMetrics uint64 = 0x8c01a440cc35d8ba
	pinFigure8       uint64 = 0x7efe24d9be149ccb
	pinDeferral      uint64 = 0x67877ea462e7d8c8
	pinFaultRows     uint64 = 0x939d31f587d86591
)

// str folds a string into digest input, one value per byte.
func str(s string) []float64 {
	out := make([]float64, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = float64(s[i])
	}
	return out
}

func checkPin(t *testing.T, what string, vals []float64, want uint64) {
	t.Helper()
	if got := fnv1a(vals); got != want {
		t.Fatalf("%s digest %#x, pinned %#x", what, got, want)
	}
}

func TestPinnedGoldenMetrics(t *testing.T) {
	art := sharedArtifacts(t)
	pol, err := art.NewPolicy("tesla", 5)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig(pol, workload.Medium, 5)
	rc.WarmupS = 3600
	rc.EvalS = 3600
	_, m, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	checkPin(t, "golden metrics", []float64{
		float64(m.Steps), m.HoursH, m.CEkWh, m.TSVFrac, m.CIFrac, m.MeanSp, m.MaxCold,
	}, pinGoldenMetrics)
}

func TestPinnedFigure8(t *testing.T) {
	figs, err := Figure8(sharedArtifacts(t), 1800, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("%d figures, want fig8a and two fig8b snapshots", len(figs))
	}
	var vals []float64
	for _, f := range figs {
		vals = append(vals, str(f.ID+"|"+f.Caption)...)
		for _, s := range f.Series {
			vals = append(vals, str(s.Name)...)
			vals = append(vals, s.X...)
			vals = append(vals, s.Y...)
		}
	}
	checkPin(t, "figure 8", vals, pinFigure8)
}

// The deferral study is the slowest experiment a test runs, so its two
// tests share one run.
var (
	deferralOnce  sync.Once
	deferralStudy DeferralStudy
	deferralErr   error
)

func sharedDeferralStudy(t *testing.T) DeferralStudy {
	t.Helper()
	a := sharedArtifacts(t)
	deferralOnce.Do(func() { deferralStudy, deferralErr = RunDeferralStudy(a, 4, 51) })
	if deferralErr != nil {
		t.Fatal(deferralErr)
	}
	return deferralStudy
}

func TestPinnedDeferralStudy(t *testing.T) {
	study := sharedDeferralStudy(t)
	var vals []float64
	for _, o := range []DeferralOutcome{study.Immediate, study.Deferred} {
		vals = append(vals, o.CEkWh, o.PeakITKW, float64(o.Completed), o.TSVFrac, o.MeanSp)
	}
	checkPin(t, "deferral study", vals, pinDeferral)
}

func TestPinnedFaultMatrixRows(t *testing.T) {
	fm, err := RunFaultMatrix(sharedArtifacts(t), workload.Medium, 3600, 23)
	if err != nil {
		t.Fatal(err)
	}
	h := fm.Healthy
	vals := []float64{float64(h.Steps), h.CEkWh, h.TSVFrac, h.CIFrac, h.MeanSp, h.MaxCold, fm.Healthy.TrueTSVFrac}
	var row *FaultRow
	for i := range fm.Rows {
		if fm.Rows[i].Scenario == "stuck-low" {
			row = &fm.Rows[i]
		}
	}
	if row == nil || row.Class != "sensor" {
		t.Fatalf("no stuck-low sensor row in %v", fm)
	}
	vals = append(vals, float64(row.Steps), row.CEkWh, row.TSVFrac, row.CIFrac, row.MeanSp, row.MaxCold,
		row.TrueTSVFrac, float64(row.RecoverySteps), row.EnergyDeltaKWh,
		float64(row.Escalations), float64(row.Quarantines), float64(row.MaxLevel))
	t.Logf("stuck-low: recovery %d steps, %d escalations, %d quarantines, max level %v",
		row.RecoverySteps, row.Escalations, row.Quarantines, row.MaxLevel)
	checkPin(t, "fault-matrix rows", vals, pinFaultRows)
}
