// Package model implements TESLA's DC time-series model (paper §3.2): four
// linear sub-modules trained with the direct strategy that together predict,
// for a candidate set-point held over the next L steps,
//
//   - the average server power trajectory (ASP sub-module, eq. 1),
//   - the ACU inlet temperatures per internal sensor (ACU sub-module, eq. 2),
//   - the DC temperatures per rack-installed sensor (DCS sub-module, eq. 3),
//   - the cooling energy over the horizon (cooling-energy sub-module, eq. 4),
//
// plus the derived optimization quantities: the cooling-interruption proxy
// D (eqs. 6–7), the objective O = E + D (eq. 8) and the thermal-safety
// constraint C (eq. 9).
//
// Each sub-module is a bank of ridge regressions solved analytically; the
// paper's Table 2 regularization (α_β=0 for ASP, α=1 for the rest, because
// those three see predicted rather than true inputs at inference time) is
// the default. All data is min-max normalized before fitting, mirroring the
// paper's preprocessing, with the scaler kept so callers deal only in
// physical units.
package model

import (
	"fmt"

	"tesla/internal/linreg"
	"tesla/internal/mat"
)

// Config parameterizes training.
type Config struct {
	// L is the prediction horizon in control steps (20 in the paper).
	L int
	// AlphaASP, AlphaACU, AlphaDCS, AlphaEnergy are the per-sub-module ridge
	// strengths (0, 1, 1, 1 in Table 2).
	AlphaASP, AlphaACU, AlphaDCS, AlphaEnergy float64
	// Stride subsamples training windows (1 = use every window).
	Stride int
	// ColdIdx lists the DC-sensor indices in the cold aisle (I_cold).
	ColdIdx []int
	// AllowedColdC is d_allowed, the cold-aisle limit (22 °C).
	AllowedColdC float64
	// KappaC is κ, the residual-error threshold beyond which cooling
	// interruption is penalized (0.5 °C).
	KappaC float64
}

// DefaultConfig returns the paper's Table 2 hyperparameters for a testbed
// with nColdAisle leading cold-aisle sensors.
func DefaultConfig(nColdAisle int) Config {
	cold := make([]int, nColdAisle)
	for i := range cold {
		cold[i] = i
	}
	return Config{
		L:        20,
		AlphaASP: 0, AlphaACU: 1, AlphaDCS: 1, AlphaEnergy: 1,
		Stride:       1,
		ColdIdx:      cold,
		AllowedColdC: 22,
		KappaC:       0.5,
	}
}

// Validate reports invalid configurations.
func (c Config) Validate() error {
	switch {
	case c.L < 1:
		return fmt.Errorf("model: horizon L must be >= 1, got %d", c.L)
	case c.AlphaASP < 0 || c.AlphaACU < 0 || c.AlphaDCS < 0 || c.AlphaEnergy < 0:
		return fmt.Errorf("model: ridge strengths must be non-negative")
	case c.Stride < 1:
		return fmt.Errorf("model: stride must be >= 1, got %d", c.Stride)
	case len(c.ColdIdx) == 0:
		return fmt.Errorf("model: need at least one cold-aisle sensor index")
	}
	return nil
}

// Model is the trained DC time-series model.
type Model struct {
	cfg    Config
	na, nd int

	scale scaler

	asp    *linreg.Model   // L past powers → L future powers
	acu    []*linreg.Model // per horizon step l: (2+Na·L) → Na
	dcs    []*linreg.Model // per horizon step l: (1+Na+Nd·L) → Nd
	energy *linreg.Model   // (L+Na·L) → 1
}

// Config returns the training configuration.
func (m *Model) Config() Config { return m.cfg }

// Na returns the number of ACU inlet sensors the model was trained with.
func (m *Model) Na() int { return m.na }

// Nd returns the number of DC sensors the model was trained with.
func (m *Model) Nd() int { return m.nd }

// History is the model's inference input: the last L samples of each series,
// ordered oldest→newest (index L-1 is time t, the current step).
type History struct {
	AvgPower []float64   // length L
	ACUTemps [][]float64 // [Na][L]
	DCTemps  [][]float64 // [Nd][L]
}

// Validate checks the history shape against the model.
func (m *Model) ValidateHistory(h *History) error {
	if len(h.AvgPower) != m.cfg.L {
		return fmt.Errorf("model: history power length %d, want L=%d", len(h.AvgPower), m.cfg.L)
	}
	if len(h.ACUTemps) != m.na {
		return fmt.Errorf("model: history has %d ACU series, want %d", len(h.ACUTemps), m.na)
	}
	if len(h.DCTemps) != m.nd {
		return fmt.Errorf("model: history has %d DC series, want %d", len(h.DCTemps), m.nd)
	}
	for i, s := range h.ACUTemps {
		if len(s) != m.cfg.L {
			return fmt.Errorf("model: ACU series %d has %d samples, want %d", i, len(s), m.cfg.L)
		}
	}
	for i, s := range h.DCTemps {
		if len(s) != m.cfg.L {
			return fmt.Errorf("model: DC series %d has %d samples, want %d", i, len(s), m.cfg.L)
		}
	}
	return nil
}

// Prediction bundles the model outputs for one candidate set-point.
type Prediction struct {
	Setpoint float64
	// AvgPower[l] is p̂_{t+l+1} (kW).
	AvgPower []float64
	// ACUTemps is L×Na: â per horizon step and inlet sensor (°C).
	ACUTemps *mat.Dense
	// DCTemps is L×Nd: d̂ per horizon step and DC sensor (°C).
	DCTemps *mat.Dense
	// EnergyKWh is Ê, the predicted cooling energy over the horizon.
	EnergyKWh float64
	// EnergyNorm is Ê on the min-max normalized scale the paper's
	// optimization objective is computed in.
	EnergyNorm float64
	// Interruption is D̂, the cooling-interruption proxy (°C·steps, eq. 6).
	Interruption float64
	// InterruptionNorm is D̂ with residuals on the normalized temperature
	// scale, commensurate with EnergyNorm.
	InterruptionNorm float64
	// Constraint is Ĉ = max cold-aisle prediction − d_allowed (eq. 9);
	// negative means predicted-safe.
	Constraint float64
}

// reshape sizes p's slices for horizon L, na inlet and nd DC sensors,
// keeping those that already have that shape.
func (p *Prediction) reshape(L, na, nd int) {
	if len(p.AvgPower) != L {
		p.AvgPower = make([]float64, L)
	}
	if p.ACUTemps == nil || p.ACUTemps.Rows != L || p.ACUTemps.Cols != na {
		p.ACUTemps = mat.New(L, na)
	}
	if p.DCTemps == nil || p.DCTemps.Rows != L || p.DCTemps.Cols != nd {
		p.DCTemps = mat.New(L, nd)
	}
}

// Objective returns Ô = Ê + D̂ (eq. 8) on the normalized scale, the quantity
// TESLA minimizes. Normalization makes the two terms commensurate, exactly
// as in the paper where all data is min-max normalized before modeling.
func (p *Prediction) Objective() float64 { return p.EnergyNorm + p.InterruptionNorm }

// scaler holds the min-max normalization ranges per physical quantity
// (temperatures share one range so sensor interdependencies keep their
// relative scale, as a per-column min-max on a temperature block would).
type scaler struct {
	TempMin, TempMax float64
	PowMin, PowMax   float64
	SpMin, SpMax     float64
	EMin, EMax       float64
}

func (s scaler) temp(v float64) float64   { return norm(v, s.TempMin, s.TempMax) }
func (s scaler) pow(v float64) float64    { return norm(v, s.PowMin, s.PowMax) }
func (s scaler) sp(v float64) float64     { return norm(v, s.SpMin, s.SpMax) }
func (s scaler) energy(v float64) float64 { return norm(v, s.EMin, s.EMax) }

func (s scaler) unTemp(v float64) float64   { return denorm(v, s.TempMin, s.TempMax) }
func (s scaler) unPow(v float64) float64    { return denorm(v, s.PowMin, s.PowMax) }
func (s scaler) unEnergy(v float64) float64 { return denorm(v, s.EMin, s.EMax) }

func norm(v, lo, hi float64) float64 {
	if hi <= lo {
		return 0.5
	}
	return (v - lo) / (hi - lo)
}

func denorm(v, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + v*(hi-lo)
}
