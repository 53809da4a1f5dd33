package model

import (
	"fmt"

	"tesla/internal/dataset"
	"tesla/internal/mat"
)

// Predict runs the full sub-module cascade for a candidate set-point held
// constant over the horizon (the optimizer's shared-set-point constraint,
// eq. 5): ASP → ACU → DCS → cooling energy, then derives the interruption
// proxy D̂ (eqs. 6–7) and the thermal-safety constraint Ĉ (eq. 9).
func (m *Model) Predict(h *History, setpoint float64) (*Prediction, error) {
	ln, err := m.Line(h)
	if err != nil {
		return nil, err
	}
	p := new(Prediction)
	ln.Eval(setpoint, p)
	return p, nil
}

// PredictSeq is Predict for an arbitrary set-point sequence s_{t+1..t+L};
// model-accuracy evaluation on historical traces uses it with the actually
// executed sequence.
func (m *Model) PredictSeq(h *History, setpoints []float64) (*Prediction, error) {
	ln, err := m.Line(h)
	if err != nil {
		return nil, err
	}
	if len(setpoints) != m.cfg.L {
		return nil, fmt.Errorf("model: %d set-points for horizon %d", len(setpoints), m.cfg.L)
	}
	p := new(Prediction)
	ln.EvalSeq(setpoints, p)
	return p, nil
}

// Line is the cascade for one history, split at the set-point. Of the
// cascade's inputs only the set-point sequence and what follows from it
// (the predicted inlets â) vary between the optimizer's candidates; the
// history features are shared. Line sums the history part once: ASP, which
// ignores the set-point, and for each horizon step l the bias plus history
// terms of the ACU and DCS regressions. EvalSeq then adds each candidate's
// own terms, in the linear-MPC manner of splitting a prediction into a free
// response (history) and a forced response (input).
//
// A Line holds scratch buffers, so one Line must not be evaluated from
// several goroutines at once.
type Line struct {
	m     *Model
	pHatN []float64 // normalized p̂_{t+1..t+L}
	acuN  []float64 // L×Na: bias + history terms of acu[l]
	dcsN  []float64 // L×Nd: bias + history terms of dcs[l]

	sps  []float64 // Eval's set-point held over the horizon
	xe   []float64 // energy features: normalized set-points, then â by sensor
	eOut [1]float64
}

// Line validates h and computes the set-point-independent part of the
// cascade. The set-point and predicted-input features are left at 0, which
// linreg's PredictInto skips, so the ACU and DCS sums hold exactly the bias
// and history terms.
func (m *Model) Line(h *History) (*Line, error) {
	if err := m.ValidateHistory(h); err != nil {
		return nil, err
	}
	L, na, nd := m.cfg.L, m.na, m.nd
	sc := m.scale

	// ASP (eq. 1): normalized past powers, newest first (j=0 → time t).
	xp := make([]float64, L)
	for j := 0; j < L; j++ {
		xp[j] = sc.pow(h.AvgPower[L-1-j])
	}
	ln := &Line{
		m:     m,
		pHatN: m.asp.Predict(xp),
		acuN:  make([]float64, L*na),
		dcsN:  make([]float64, L*nd),
		sps:   make([]float64, L),
		xe:    make([]float64, L+na*L),
	}

	// ACU (eq. 2): features are [s, p̂, ACU history].
	xa := make([]float64, 2+na*L)
	for a := 0; a < na; a++ {
		for j := 0; j < L; j++ {
			xa[2+a*L+j] = sc.temp(h.ACUTemps[a][L-1-j])
		}
	}
	for l := 0; l < L; l++ {
		m.acu[l].PredictInto(xa, ln.acuN[l*na:(l+1)*na])
	}

	// DCS (eq. 3): features are [p̂, â, DC history].
	xd := make([]float64, 1+na+nd*L)
	for k := 0; k < nd; k++ {
		for j := 0; j < L; j++ {
			xd[1+na+k*L+j] = sc.temp(h.DCTemps[k][L-1-j])
		}
	}
	for l := 0; l < L; l++ {
		m.dcs[l].PredictInto(xd, ln.dcsN[l*nd:(l+1)*nd])
	}
	return ln, nil
}

// Eval is EvalSeq for the set-point x held over the horizon.
func (ln *Line) Eval(x float64, p *Prediction) {
	for i := range ln.sps {
		ln.sps[i] = x
	}
	ln.EvalSeq(ln.sps, p)
}

// EvalSeq completes the cascade for the set-point sequence s_{t+1..t+L} and
// writes every output into p, reusing its slices when they already have the
// model's shape (no allocations then). Per step l it adds the set-point
// terms s·w₀ + p̂·w₁ to the ACU sums and p̂·w₀ + Σₐ âₐ·w₁₊ₐ to the DCS sums,
// then runs the cooling-energy regression (eq. 4), clamps Ê at 0, and
// derives D̂ and Ĉ. It panics if len(sps) is not the horizon L.
func (ln *Line) EvalSeq(sps []float64, p *Prediction) {
	m := ln.m
	L, na, nd := m.cfg.L, m.na, m.nd
	if len(sps) != L {
		panic(fmt.Sprintf("model: %d set-points for horizon %d", len(sps), L))
	}
	sc := m.scale
	p.reshape(L, na, nd)
	xe := ln.xe
	for l := 0; l < L; l++ {
		spN, pN := sc.sp(sps[l]), ln.pHatN[l]
		xe[l] = spN
		p.AvgPower[l] = sc.unPow(pN)

		// ACU (eq. 2): â_l = history sum + s·w₀ + p̂·w₁.
		aw := m.acu[l].Weights
		w0, w1 := aw.Row(0), aw.Row(1)
		base := ln.acuN[l*na : (l+1)*na]
		for a, v := range base {
			v += spN * w0[a]
			v += pN * w1[a]
			xe[L+a*L+l] = v
			p.ACUTemps.Set(l, a, sc.unTemp(v))
		}

		// DCS (eq. 3): d̂_l = history sum + p̂·w₀ + Σₐ âₐ·w₁₊ₐ.
		dw := m.dcs[l].Weights
		row := p.DCTemps.Row(l)
		copy(row, ln.dcsN[l*nd:(l+1)*nd])
		for k, wv := range dw.Row(0) {
			row[k] += pN * wv
		}
		for a := 0; a < na; a++ {
			av := xe[L+a*L+l]
			for k, wv := range dw.Row(1 + a) {
				row[k] += av * wv
			}
		}
		for k, v := range row {
			row[k] = sc.unTemp(v)
		}
	}

	// Cooling energy (eq. 4) from the set-points and the predicted inlet
	// temperatures.
	eN := m.energy.PredictInto(xe, ln.eOut[:])[0]

	p.Setpoint = sps[L-1]
	p.EnergyKWh = sc.unEnergy(eN)
	if p.EnergyKWh < 0 {
		p.EnergyKWh = 0
	}
	p.EnergyNorm = sc.energy(p.EnergyKWh)
	p.Interruption = m.interruption(sps, p.ACUTemps)
	p.InterruptionNorm = p.Interruption / m.TempRangeC()
	p.Constraint = m.constraint(p.DCTemps)
}

// TempRangeC returns the min-max span of the temperature normalization.
func (m *Model) TempRangeC() float64 {
	r := m.scale.TempMax - m.scale.TempMin
	if r <= 0 {
		return 1
	}
	return r
}

// EnergyRangeKWh returns the span of the energy normalization.
func (m *Model) EnergyRangeKWh() float64 {
	r := m.scale.EMax - m.scale.EMin
	if r <= 0 {
		return 1
	}
	return r
}

// NormEnergy maps a physical energy (kWh over the horizon) onto the
// normalized objective scale (for the error monitor's realized values).
func (m *Model) NormEnergy(kwh float64) float64 { return m.scale.energy(kwh) }

// interruption computes D̂ (eqs. 6–7): per horizon step, the residual
// s − avg(â) counts when it exceeds κ, signalling the PID controller would
// deliver cold air at a reduced or zero rate.
func (m *Model) interruption(setpoints []float64, aHat *mat.Dense) float64 {
	var d float64
	for l := 0; l < m.cfg.L; l++ {
		row := aHat.Row(l)
		var avg float64
		for _, v := range row {
			avg += v
		}
		avg /= float64(len(row))
		if u := setpoints[l] - avg; u > m.cfg.KappaC {
			d += u
		}
	}
	return d
}

// constraint computes Ĉ (eq. 9): how far the maximum predicted cold-aisle
// temperature over the horizon sits above d_allowed.
func (m *Model) constraint(dHat *mat.Dense) float64 {
	maxCold := -1e30
	for l := 0; l < m.cfg.L; l++ {
		row := dHat.Row(l)
		for _, k := range m.cfg.ColdIdx {
			if row[k] > maxCold {
				maxCold = row[k]
			}
		}
	}
	return maxCold - m.cfg.AllowedColdC
}

// HistoryAt extracts the inference history ending at step t of a trace.
func HistoryAt(tr *dataset.Trace, t, L int) (*History, error) {
	if t-L+1 < 0 || t >= tr.Len() {
		return nil, fmt.Errorf("model: history window [%d,%d] outside trace of %d samples", t-L+1, t, tr.Len())
	}
	h := &History{AvgPower: append([]float64(nil), tr.AvgPower[t-L+1:t+1]...)}
	h.ACUTemps = make([][]float64, tr.Na())
	for a := range h.ACUTemps {
		h.ACUTemps[a] = append([]float64(nil), tr.ACUTemps[a][t-L+1:t+1]...)
	}
	h.DCTemps = make([][]float64, tr.Nd())
	for k := range h.DCTemps {
		h.DCTemps[k] = append([]float64(nil), tr.DCTemps[k][t-L+1:t+1]...)
	}
	return h, nil
}
