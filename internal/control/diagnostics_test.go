package control

import (
	"math"
	"testing"

	"tesla/internal/dataset"
	"tesla/internal/model"
	"tesla/internal/testbed"
)

// emptyACUTrace builds a trace with DC series but no ACU inlet series — what
// a mis-provisioned collector (or a total ACU sensor outage) delivers.
func emptyACUTrace(n int) *dataset.Trace {
	tr := dataset.NewTrace(60, 0, 3)
	for i := 0; i < n; i++ {
		tr.Append(testbed.Sample{
			TimeS: float64(i) * 60, SetpointC: 24, AvgServerKW: 0.2,
			ACUPowerKW: 1.2, ACUTemps: nil,
			DCTemps: []float64{20, 20.3, 20.6}, MaxColdAisle: 20.6,
		})
	}
	return tr
}

// TestMatureGuardsEmptyACUSeries is the regression test for the divide-by-
// zero in mature: a trace with no ACU series used to mature windows into
// NaN errors, poisoning the error monitor for the rest of the run.
func TestMatureGuardsEmptyACUSeries(t *testing.T) {
	m := smallModel(t, 11)
	ctrl, err := NewTESLA(m, fastTESLAConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Populate pending predictions on a healthy trace.
	tr := learnableTrace(40, 12)
	for step := 6; step < 20; step++ {
		ctrl.Decide(tr, step)
	}
	if len(ctrl.pending) == 0 {
		t.Fatal("no pending predictions to mature")
	}

	objBefore := ctrl.Monitor().ObjectiveCount()
	conBefore := ctrl.Monitor().ConstraintCount()

	// Mature every pending window against a trace with no ACU series.
	bad := emptyACUTrace(60)
	ctrl.mature(bad, 59)

	if len(ctrl.pending) != 0 {
		t.Fatalf("%d windows still pending; the guard must drop them", len(ctrl.pending))
	}
	if ctrl.Monitor().ObjectiveCount() != objBefore || ctrl.Monitor().ConstraintCount() != conBefore {
		t.Fatalf("invalid windows reached the monitor: obj %d→%d con %d→%d",
			objBefore, ctrl.Monitor().ObjectiveCount(), conBefore, ctrl.Monitor().ConstraintCount())
	}
	if ctrl.Diagnostics().InvalidMaturations == 0 {
		t.Fatal("dropped windows not counted in diagnostics")
	}
	// The monitor must still report finite statistics.
	if u := ctrl.Monitor().Objective(); math.IsNaN(u.Bias) || math.IsNaN(u.Variance) {
		t.Fatalf("monitor poisoned: bias=%g var=%g", u.Bias, u.Variance)
	}
}

func TestDiagnosticsCountFallbacks(t *testing.T) {
	m := smallModel(t, 13)
	ctrl, err := NewTESLA(m, fastTESLAConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := learnableTrace(20, 14)

	ctrl.Decide(tr, 2) // warmup: counted as a decision, not a fallback
	d := ctrl.Diagnostics()
	if d.Decisions != 1 || d.HistoryFallbacks != 0 {
		t.Fatalf("warmup counters wrong: %+v", d)
	}

	// A step beyond the trace makes HistoryAt fail → initial-set-point
	// fallback, counted.
	got := ctrl.Decide(tr, tr.Len()+5)
	if d = ctrl.Diagnostics(); d.Decisions != 2 || d.HistoryFallbacks != 1 {
		t.Fatalf("history-fallback counters wrong: %+v", d)
	}
	if math.IsNaN(got) {
		t.Fatalf("fallback decision is NaN")
	}

	// A normal decision leaves the fallback counters alone.
	ctrl.Decide(tr, 10)
	if d = ctrl.Diagnostics(); d.Decisions != 3 || d.HistoryFallbacks != 1 || d.OptimizerFallbacks != 0 {
		t.Fatalf("normal-decision counters wrong: %+v", d)
	}
}

// wideDCTrace is learnableTrace with one more DC sensor than smallModel was
// trained on: HistoryAt succeeds, but the model rejects the window.
func wideDCTrace(n int, seed uint64) *dataset.Trace {
	src := learnableTrace(n, seed)
	tr := dataset.NewTrace(src.PeriodS, src.Na(), src.Nd()+1)
	for i := 0; i < src.Len(); i++ {
		acu := make([]float64, src.Na())
		for a := range acu {
			acu[a] = src.ACUTemps[a][i]
		}
		dc := make([]float64, src.Nd()+1)
		for k := 0; k < src.Nd(); k++ {
			dc[k] = src.DCTemps[k][i]
		}
		dc[src.Nd()] = src.DCTemps[src.Nd()-1][i] + 0.5
		tr.Append(testbed.Sample{
			TimeS: src.TimeS[i], SetpointC: src.Setpoint[i], AvgServerKW: src.AvgPower[i],
			ACUPowerKW: src.ACUPower[i], ACUTemps: acu, DCTemps: dc, MaxColdAisle: src.MaxCold[i],
		})
	}
	return tr
}

// TestDecideOnRejectedHistory pins Decide when the trace supplies a history
// window the model rejects (here, one DC sensor too many): every evaluation
// is the 1e6/1e6 infeasible one, BO falls back to the S_min backstop, no
// fallback counter moves and no prediction is queued for maturation.
func TestDecideOnRejectedHistory(t *testing.T) {
	m := smallModel(t, 15)
	cfg := fastTESLAConfig()
	ctrl, err := NewTESLA(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := wideDCTrace(40, 16)
	if _, err := m.PredictSeq(mustHistory(t, tr, 10, m.Config().L), make([]float64, m.Config().L)); err == nil {
		t.Fatal("model accepted a history with an extra DC sensor")
	}

	ctrl.Decide(tr, 0) // warm-up: InitialSetpointC into the smoothing buffer
	ctrl.Decide(tr, 1)
	got := ctrl.Decide(tr, 10)
	want := (2*cfg.InitialSetpointC + cfg.BO.Min) / 3
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("set-point %g, want S_min %g through the smoothing buffer → %g", got, cfg.BO.Min, want)
	}
	if raw := ctrl.LastComputed(); raw != cfg.BO.Min {
		t.Fatalf("raw set-point %g, want S_min %g", raw, cfg.BO.Min)
	}
	if d := ctrl.Diagnostics(); d != (Diagnostics{Decisions: 3}) {
		t.Fatalf("diagnostics %+v, want only 3 decisions counted", d)
	}
	res := ctrl.LastResult()
	if res == nil || res.Feasible {
		t.Fatalf("last result %+v, want an infeasible optimizer result", res)
	}
	for _, e := range res.Evals {
		if e.Obj != 1e6 || e.Con != 1e6 {
			t.Fatalf("evaluation at x=%g is obj=%g con=%g, want the 1e6/1e6 infeasible one", e.X, e.Obj, e.Con)
		}
	}
	if len(ctrl.pending) != 0 {
		t.Fatalf("%d predictions queued for maturation, want none", len(ctrl.pending))
	}

	// A later decision matures nothing and still takes the backstop.
	ctrl.Decide(tr, 30)
	if d := ctrl.Diagnostics(); d != (Diagnostics{Decisions: 4}) || len(ctrl.pending) != 0 {
		t.Fatalf("after a second rejected decision: diagnostics %+v, %d pending", d, len(ctrl.pending))
	}
}

func mustHistory(t *testing.T, tr *dataset.Trace, step, L int) *model.History {
	t.Helper()
	h, err := model.HistoryAt(tr, step, L)
	if err != nil {
		t.Fatal(err)
	}
	return h
}
