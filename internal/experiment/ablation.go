package experiment

import (
	"fmt"
	"math"
	"strings"

	"tesla/internal/control"
	"tesla/internal/parallel"
	"tesla/internal/workload"
)

// Ablation names one of the design-choice studies listed in DESIGN.md.
type Ablation string

// The ablations: each removes one ingredient of the TESLA controller.
const (
	// AblationNone is the full controller (reference).
	AblationNone Ablation = "full"
	// AblationNoInterruptionPenalty drops D̂ from the objective (eq. 8
	// reduced to cooling energy only — the Lazic/TSRL objective).
	AblationNoInterruptionPenalty Ablation = "no-interruption-penalty"
	// AblationNoSmoothing shrinks the §3.4 buffer to length 1.
	AblationNoSmoothing Ablation = "no-smoothing"
	// AblationNoErrorAwareness trusts the model's point predictions:
	// feasibility margin and constraint margin off.
	AblationNoErrorAwareness Ablation = "no-error-awareness"
)

// AllAblations lists every variant including the reference.
func AllAblations() []Ablation {
	return []Ablation{
		AblationNone,
		AblationNoInterruptionPenalty,
		AblationNoSmoothing,
		AblationNoErrorAwareness,
	}
}

// NewAblatedTESLA builds a TESLA controller with one ingredient removed.
func (a *Artifacts) NewAblatedTESLA(ab Ablation, seed uint64) (*control.TESLA, error) {
	cfg := control.DefaultTESLAConfig(a.TBConf.ACU.SetpointMinC, a.TBConf.ACU.SetpointMaxC)
	cfg.Seed = seed
	switch ab {
	case AblationNone:
	case AblationNoInterruptionPenalty:
		cfg.InterruptionWeight = 0
	case AblationNoSmoothing:
		cfg.SmoothN = 1
	case AblationNoErrorAwareness:
		cfg.BO.FeasProb = 0.5
		cfg.ConstraintMarginC = 0
	default:
		return nil, fmt.Errorf("experiment: unknown ablation %q", ab)
	}
	return control.NewTESLA(a.Model, cfg)
}

// AblationResult is one variant's end-to-end outcome.
type AblationResult struct {
	Ablation Ablation
	Metrics
	// SetpointChurnC is the mean absolute step-to-step set-point change —
	// the churn the smoothing buffer exists to suppress (§3.4).
	SetpointChurnC float64
}

// AblationStudy runs every variant under the same load and seed.
type AblationStudy struct {
	Load    workload.Setting
	Results []AblationResult
}

// String renders the study as a table.
func (s AblationStudy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation study (%s load)\n", s.Load)
	fmt.Fprintf(&b, "  %-26s %9s %7s %7s %11s\n", "variant", "CE(kWh)", "TSV(%)", "CI(%)", "churn(°C/m)")
	for _, r := range s.Results {
		fmt.Fprintf(&b, "  %-26s %9.2f %7.2f %7.2f %11.3f\n",
			r.Ablation, r.CEkWh, 100*r.TSVFrac, 100*r.CIFrac, r.SetpointChurnC)
	}
	return b.String()
}

// RunAblations executes the study with identical testbeds per variant. The
// variants are independent closed-loop runs off the same seed, so they fan
// out over the worker pool; results come back in AllAblations order.
func RunAblations(a *Artifacts, load workload.Setting, evalS float64, seed uint64) (AblationStudy, error) {
	study := AblationStudy{Load: load}
	abs := AllAblations()
	results, err := parallel.MapErr(0, len(abs), func(i int) (AblationResult, error) {
		ab := abs[i]
		p, err := a.NewAblatedTESLA(ab, seed)
		if err != nil {
			return AblationResult{}, err
		}
		rc := DefaultRunConfig(p, load, seed)
		rc.EvalS = evalS
		tr, m, err := Run(rc)
		if err != nil {
			return AblationResult{}, fmt.Errorf("experiment: ablation %q: %w", ab, err)
		}
		res := AblationResult{Ablation: ab, Metrics: m}
		// Set-point churn: mean absolute step-to-step change over the
		// evaluation window (the trend cancels out of first differences).
		start := tr.Len() - m.Steps
		var churn float64
		for i := start + 1; i < tr.Len(); i++ {
			churn += math.Abs(tr.Setpoint[i] - tr.Setpoint[i-1])
		}
		if m.Steps > 1 {
			churn /= float64(m.Steps - 1)
		}
		res.SetpointChurnC = churn
		return res, nil
	})
	if err != nil {
		return study, err
	}
	study.Results = results
	return study, nil
}

// FaultInjectionResult reports controller behaviour with a failed sensor.
type FaultInjectionResult struct {
	Healthy Metrics
	Faulty  Metrics
	// StuckSensor is the failed cold-aisle DC sensor index; StuckAtC its
	// frozen reading.
	StuckSensor int
	StuckAtC    float64
}

// RunFaultInjection runs TESLA twice under the same load: once healthy and
// once with a cold-aisle sensor stuck at a high reading. A stuck-high probe
// makes the measured constraint pessimistic, so a robust controller must
// stay safe (possibly at an energy cost) rather than destabilize.
func RunFaultInjection(a *Artifacts, load workload.Setting, evalS float64, seed uint64) (FaultInjectionResult, error) {
	out := FaultInjectionResult{StuckSensor: 5, StuckAtC: 21.5}

	runOnce := func(inject bool) (Metrics, error) {
		p, err := a.NewTESLAPolicy(seed)
		if err != nil {
			return Metrics{}, err
		}
		rc := DefaultRunConfig(p, load, seed)
		rc.EvalS = evalS
		tb, err := rc.newTestbed()
		if err != nil {
			return Metrics{}, err
		}
		if inject {
			tb.Sensors.FailDC(out.StuckSensor, out.StuckAtC)
		}
		_, m, err := runLoopWithTrace(tb, rc)
		return m, err
	}

	// The healthy and faulty runs share nothing but the (immutable) trained
	// artifacts, so they run concurrently.
	ms, err := parallel.MapErr(0, 2, func(i int) (Metrics, error) {
		return runOnce(i == 1)
	})
	if err != nil {
		return out, err
	}
	out.Healthy, out.Faulty = ms[0], ms[1]
	return out, nil
}
