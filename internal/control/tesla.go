package control

import (
	"fmt"
	"math"

	"tesla/internal/bo"
	"tesla/internal/dataset"
	"tesla/internal/errmon"
	"tesla/internal/model"
)

// TESLAConfig assembles the full controller.
type TESLAConfig struct {
	// BO is the Bayesian-optimizer budget over [S_min, S_max].
	BO bo.Config
	// SmoothN is the smoothing-buffer length (N=5 in Table 2).
	SmoothN int
	// MonitorCapacity is the prediction-error window (one day = 1440 steps).
	MonitorCapacity int
	// Bootstrap is N_b, the bootstrap sample count (500 in Table 2).
	Bootstrap int
	// InterruptionWeight scales D̂ in the objective; 1 reproduces eq. 8 and
	// 0 is the "no interruption penalty" ablation.
	InterruptionWeight float64
	// ConstraintMarginC tightens the internal cold-aisle limit below
	// d_allowed. The paper notes the thermal-safety constraint can be
	// adjusted at deployment time without retraining (§8); the margin
	// absorbs model extrapolation error at the edges of the training
	// distribution.
	ConstraintMarginC float64
	// DefaultObjVar / DefaultConVar seed the GP noise before the monitor has
	// matured any predictions.
	DefaultObjVar, DefaultConVar float64
	// InitialSetpointC is executed until the model has enough history.
	InitialSetpointC float64
	Seed             uint64
}

// DefaultTESLAConfig returns the paper's Table 2 configuration for the given
// set-point range.
func DefaultTESLAConfig(spMin, spMax float64) TESLAConfig {
	return TESLAConfig{
		BO:                 bo.DefaultConfig(spMin, spMax),
		SmoothN:            5,
		MonitorCapacity:    1440,
		Bootstrap:          500,
		InterruptionWeight: 1,
		ConstraintMarginC:  0.45,
		DefaultObjVar:      0.02 * 0.02,
		DefaultConVar:      0.25 * 0.25,
		InitialSetpointC:   23,
		Seed:               1,
	}
}

// Diagnostics are TESLA's cumulative decision counters, exported so operators
// can see how often the controller ran on its fallbacks instead of the
// optimizer (surfaced through teslad's status endpoint).
type Diagnostics struct {
	// Decisions counts every Decide call, warmup included.
	Decisions uint64
	// HistoryFallbacks counts decisions that returned InitialSetpointC
	// because the trace could not supply a valid model history window.
	HistoryFallbacks uint64
	// OptimizerFallbacks counts decisions that returned the S_min backstop
	// because the Bayesian optimizer failed.
	OptimizerFallbacks uint64
	// InvalidMaturations counts matured prediction windows dropped because
	// the realized telemetry was unusable (no ACU series, or non-finite
	// realizations) — windows that would otherwise have poisoned the error
	// monitor with NaN.
	InvalidMaturations uint64
}

// pendingPrediction is a decision awaiting maturation: once its horizon has
// elapsed the realized objective/constraint are compared against what the
// model predicted and the errors land in the monitor.
type pendingPrediction struct {
	decidedAt   int
	predObj     float64 // predicted normalized objective Ê_norm + w·D̂_norm
	predMaxCold float64
}

// TESLA is the full controller of §3.
type TESLA struct {
	cfg     TESLAConfig
	model   *model.Model
	monitor *errmon.Monitor
	smooth  *SmoothingBuffer
	pending []pendingPrediction

	lastResult *bo.Result
	lastRaw    float64
	step       uint64
	diag       Diagnostics
}

// NewTESLA wires a trained DC time-series model into a controller.
func NewTESLA(m *model.Model, cfg TESLAConfig) (*TESLA, error) {
	if m == nil {
		return nil, fmt.Errorf("control: TESLA needs a trained model")
	}
	if cfg.SmoothN < 1 {
		return nil, fmt.Errorf("control: smoothing buffer must have positive length")
	}
	if cfg.InterruptionWeight < 0 {
		return nil, fmt.Errorf("control: negative interruption weight")
	}
	if err := cfg.BO.Validate(); err != nil {
		return nil, err
	}
	mon, err := errmon.New(cfg.MonitorCapacity, cfg.Bootstrap, cfg.Seed^0xe44)
	if err != nil {
		return nil, err
	}
	return &TESLA{
		cfg:     cfg,
		model:   m,
		monitor: mon,
		smooth:  NewSmoothingBuffer(cfg.SmoothN),
	}, nil
}

// Name implements Policy.
func (t *TESLA) Name() string { return "tesla" }

// LastResult exposes the most recent optimizer state (objective/constraint
// surrogates and evaluations) for introspection — the paper's Figure 8b.
func (t *TESLA) LastResult() *bo.Result { return t.lastResult }

// Monitor exposes the prediction-error monitor (for diagnostics and tests).
func (t *TESLA) Monitor() *errmon.Monitor { return t.monitor }

// Diagnostics returns the cumulative decision counters.
func (t *TESLA) Diagnostics() Diagnostics { return t.diag }

// Decide implements Policy: mature pending predictions, run the
// model-error-aware BO, and smooth the computed set-point (Figure 7).
func (t *TESLA) Decide(tr *dataset.Trace, step int) float64 {
	t.diag.Decisions++
	L := t.model.Config().L
	if step < L-1 {
		return t.smooth.Push(t.cfg.InitialSetpointC)
	}
	t.mature(tr, step)

	h, err := model.HistoryAt(tr, step, L)
	if err != nil {
		t.diag.HistoryFallbacks++
		return t.smooth.Push(t.cfg.InitialSetpointC)
	}

	objU := t.monitor.Objective()
	conU := t.monitor.Constraint()
	objVar := objU.Variance
	if !objU.Reliable {
		objVar = t.cfg.DefaultObjVar
	}
	conVar := conU.Variance
	if !conU.Reliable {
		conVar = t.cfg.DefaultConVar
	}

	// The history part of the cascade is shared by every candidate; build
	// it once and evaluate each set-point on it into one Prediction.
	line, lerr := t.model.Line(h)
	p := new(model.Prediction)
	eval := func(x float64) bo.Evaluation {
		if lerr != nil {
			// A history the model rejects (a sensor count it was not trained
			// on): degrade to an evaluation the optimizer will treat as
			// infeasible.
			return bo.Evaluation{X: x, Obj: 1e6, Con: 1e6, ObjNoiseVar: objVar, ConNoiseVar: conVar}
		}
		line.Eval(x, p)
		obj := p.EnergyNorm + t.cfg.InterruptionWeight*p.InterruptionNorm
		con := p.Constraint + t.cfg.ConstraintMarginC
		// Modeling-error awareness (Figure 7): the bootstrap over the
		// monitor's error window yields the distribution of Ô and Ĉ around
		// the truth; its mean recenters the observation (prediction error is
		// predicted − realized) and its variance rides along as the fixed GP
		// observation noise. Injecting a single random draw here instead
		// would add a random walk on top of the recommendation — the GP
		// already accounts for the spread through the noise variance.
		if objU.Reliable {
			obj -= objU.Bias
		}
		if conU.Reliable {
			con -= conU.Bias
		}
		return bo.Evaluation{X: x, Obj: obj, Con: con, ObjNoiseVar: objVar, ConNoiseVar: conVar}
	}

	boCfg := t.cfg.BO
	boCfg.Seed = t.cfg.Seed ^ (t.step * 0x9e37)
	t.step++
	res, err := bo.Optimize(boCfg, eval)
	if err != nil {
		// Optimizer failure: fall back to the paper's S_min backstop.
		t.diag.OptimizerFallbacks++
		t.lastResult = nil
		return t.smooth.Push(boCfg.Min)
	}
	t.lastResult = res
	t.lastRaw = res.X

	// Log the prediction made for the chosen set-point so its error can be
	// measured once the horizon elapses.
	if lerr == nil {
		line.Eval(res.X, p)
		maxCold := p.Constraint + t.model.Config().AllowedColdC
		t.pending = append(t.pending, pendingPrediction{
			decidedAt:   step,
			predObj:     p.EnergyNorm + t.cfg.InterruptionWeight*p.InterruptionNorm,
			predMaxCold: maxCold,
		})
	}
	return t.smooth.Push(res.X)
}

// LastComputed returns the optimizer's raw (pre-smoothing) set-point.
func (t *TESLA) LastComputed() float64 { return t.lastRaw }

// mature feeds completed prediction windows into the error monitor.
func (t *TESLA) mature(tr *dataset.Trace, step int) {
	L := t.model.Config().L
	kappa := t.model.Config().KappaC
	kept := t.pending[:0]
	for _, p := range t.pending {
		if p.decidedAt+L > step {
			kept = append(kept, p)
			continue
		}
		// A trace with no ACU series cannot realize the interruption proxy:
		// the average below would divide by zero and feed NaN into the error
		// monitor, silently disabling modeling-error awareness for the rest
		// of the run. Drop the window instead.
		if tr.Na() == 0 {
			t.diag.InvalidMaturations++
			continue
		}
		lo, hi := p.decidedAt+1, p.decidedAt+1+L
		realizedE := tr.EnergyKWh(lo, hi)
		// Realized interruption proxy from executed set-points and inlets.
		var realizedD float64
		for i := lo; i < hi; i++ {
			var avg float64
			for _, s := range tr.ACUTemps {
				avg += s[i]
			}
			avg /= float64(len(tr.ACUTemps))
			if u := tr.Setpoint[i] - avg; u > kappa {
				realizedD += u
			}
		}
		realizedObj := t.model.NormEnergy(realizedE) +
			t.cfg.InterruptionWeight*realizedD/t.model.TempRangeC()
		var realizedMaxCold float64
		for i := lo; i < hi; i++ {
			if tr.MaxCold[i] > realizedMaxCold {
				realizedMaxCold = tr.MaxCold[i]
			}
		}
		// Corrupted telemetry (dropout gaps) can surface as NaN realizations;
		// those windows carry no usable error signal.
		objErr := p.predObj - realizedObj
		conErr := p.predMaxCold - realizedMaxCold
		if math.IsNaN(objErr) || math.IsInf(objErr, 0) || math.IsNaN(conErr) || math.IsInf(conErr, 0) {
			t.diag.InvalidMaturations++
			continue
		}
		t.monitor.RecordObjective(objErr)
		t.monitor.RecordConstraint(conErr)
	}
	t.pending = kept
}
