package experiment

import (
	"fmt"
	"strings"

	"tesla/internal/faults"
	"tesla/internal/parallel"
	"tesla/internal/rng"
	"tesla/internal/safety"
	"tesla/internal/workload"
)

// FaultRow is one scenario's outcome under the supervised controller.
type FaultRow struct {
	Scenario string
	Class    string // sensor / actuator / telemetry
	// Metrics are measured from the *delivered* (possibly corrupted)
	// telemetry, except TrueTSVFrac: the fraction of evaluation steps whose
	// ground-truth cold-aisle maximum exceeded the limit — the physical
	// violation rate, immune to the injected telemetry corruption. For sensor
	// and telemetry faults a correct supervisor keeps it at zero; actuator
	// faults remove real cooling, so there it measures the physical exposure
	// instead.
	Metrics
	// RecoverySteps counts control steps from the fault clearing until the
	// supervisor is back at its normal stage with the true cold-aisle maximum
	// inside the limit; -1 if that never happens within the window.
	RecoverySteps int
	// EnergyDeltaKWh is the cooling-energy cost of surviving the fault,
	// relative to the healthy supervised baseline of the same seed.
	EnergyDeltaKWh float64

	Escalations uint64
	Quarantines uint64
	MaxLevel    safety.Level
}

// FaultMatrix is the full sweep: one healthy baseline plus one row per
// faults.Matrix scenario, all under the supervised TESLA controller.
type FaultMatrix struct {
	Load workload.Setting
	// Healthy is the fault-free baseline. Its TrueTSVFrac is the floor
	// against which the per-scenario true(%) column is judged: only the
	// excess over it is attributable to the fault.
	Healthy Metrics
	Rows    []FaultRow
}

// String renders the matrix as a fixed-width table.
func (fm FaultMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault matrix (%s load, supervised tesla; healthy CE=%.2f kWh, true TSV=%.2f%%)\n",
		fm.Load, fm.Healthy.CEkWh, 100*fm.Healthy.TrueTSVFrac)
	fmt.Fprintf(&b, "  %-18s %-9s %8s %8s %8s %9s %5s %-14s\n",
		"scenario", "class", "TSV(%)", "true(%)", "ΔCE", "recovery", "esc", "max level")
	for _, r := range fm.Rows {
		rec := "—"
		if r.RecoverySteps >= 0 {
			rec = fmt.Sprintf("%d min", r.RecoverySteps)
		}
		fmt.Fprintf(&b, "  %-18s %-9s %8.2f %8.2f %+8.2f %9s %5d %-14s\n",
			r.Scenario, r.Class, 100*r.TSVFrac, 100*r.TrueTSVFrac, r.EnergyDeltaKWh,
			rec, r.Escalations, r.MaxLevel)
	}
	return b.String()
}

// supervisedRun is Run with three additions: the policy is wrapped in a
// safety.Supervisor, an optional fault engine is attached to the testbed,
// and recovery bookkeeping rides along between steps. sc == nil runs the
// healthy baseline.
func supervisedRun(a *Artifacts, load workload.Setting, evalS float64, seed uint64, teslaSeed uint64, sc *faults.Scenario) (FaultRow, error) {
	p, err := a.NewTESLAPolicy(teslaSeed)
	if err != nil {
		return FaultRow{}, err
	}
	rc := DefaultRunConfig(p, load, seed)
	rc.EvalS = evalS
	supCfg := safety.DefaultConfig(rc.ColdLimC, a.TBConf.ACU.SetpointMinC, a.TBConf.ACU.SetpointMaxC)
	sup, err := safety.Wrap(p, supCfg)
	if err != nil {
		return FaultRow{}, err
	}
	rc.Policy = sup

	tb, err := rc.newTestbed()
	if err != nil {
		return FaultRow{}, err
	}
	row := FaultRow{Scenario: "healthy", RecoverySteps: -1}
	if sc != nil {
		eng, err := faults.NewEngine(*sc)
		if err != nil {
			return FaultRow{}, err
		}
		tb.AddStepHook(eng)
		row.Scenario = sc.Name
		row.Class = sc.Events[0].Kind.Class()
	}

	l, evalSteps, err := rc.warmLoop(tb)
	if err != nil {
		return FaultRow{}, err
	}
	clearStep := -1 // eval-step index at which the fault schedule has cleared
	for i := 0; i < evalSteps; i++ {
		_, s, err := l.Step()
		if err != nil {
			return FaultRow{}, err
		}
		if sc != nil && s.TimeS >= sc.EndS() {
			if clearStep < 0 {
				clearStep = i
			}
			if row.RecoverySteps < 0 && sup.Level() == safety.LevelNormal && s.TrueMaxColdC <= rc.ColdLimC {
				row.RecoverySteps = i - clearStep
			}
		}
	}
	row.Metrics = rc.metrics(l)

	st := sup.Stats()
	row.Escalations = st.Escalations
	row.Quarantines = st.QuarantineEvents
	row.MaxLevel = sup.MaxLevel()
	return row, nil
}

// RunFaultMatrix sweeps every faults.Matrix scenario — plus a healthy
// baseline — with the supervised TESLA controller under one load setting.
// Every run shares both the testbed seed and the controller seed: the
// injected fault is the ONLY difference between a row and the healthy
// baseline, so the true-violation excess and EnergyDeltaKWh are attributable
// to the fault rather than to seed jitter. Runs fan out over the worker pool
// and the result is identical for any worker count.
func RunFaultMatrix(a *Artifacts, load workload.Setting, evalS float64, seed uint64) (FaultMatrix, error) {
	fm := FaultMatrix{Load: load}
	warmup := DefaultRunConfig(nil, load, seed).WarmupS
	scs := faults.Matrix(warmup, evalS, seed)
	teslaSeed := rng.SeedFor(seed, 0xba5e)

	rows, err := parallel.MapErr(0, len(scs)+1, func(i int) (FaultRow, error) {
		if i == 0 {
			return supervisedRun(a, load, evalS, seed, teslaSeed, nil)
		}
		sc := scs[i-1]
		row, err := supervisedRun(a, load, evalS, seed, teslaSeed, &sc)
		if err != nil {
			return FaultRow{}, fmt.Errorf("experiment: fault scenario %q: %w", sc.Name, err)
		}
		return row, nil
	})
	if err != nil {
		return fm, err
	}
	fm.Healthy = rows[0].Metrics
	fm.Rows = rows[1:]
	for i := range fm.Rows {
		fm.Rows[i].EnergyDeltaKWh = fm.Rows[i].CEkWh - fm.Healthy.CEkWh
	}
	return fm, nil
}
