package fleet

import (
	"math"

	"tesla/internal/control"
	"tesla/internal/dataset"
	"tesla/internal/testbed"
)

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// Metrics are the end-to-end quantities of the paper's Table 5 over the
// executed control steps. While a loop runs, the three fractions hold step
// counts and MeanSp a sum; Finish divides them.
type Metrics struct {
	Steps       int     `json:"steps"`         // executed control steps
	CEkWh       float64 `json:"ce_kwh"`        // cooling energy
	TSVFrac     float64 `json:"tsv_frac"`      // delivered max cold aisle above the limit
	CIFrac      float64 `json:"ci_frac"`       // ACU interrupted
	TrueTSVFrac float64 `json:"true_tsv_frac"` // ground-truth max cold aisle above the limit
	MeanSp      float64 `json:"mean_sp_c"`     // mean executed set-point
	MaxCold     float64 `json:"max_cold_c"`    // worst delivered cold-aisle reading
}

// Add accounts one executed step.
func (m *Metrics) Add(s *testbed.Sample, periodS, coldLimitC float64) {
	m.Steps++
	m.CEkWh += s.ACUPowerKW * periodS / 3600
	if s.MaxColdAisle > coldLimitC {
		m.TSVFrac++
	}
	if s.TrueMaxColdC > coldLimitC {
		m.TrueTSVFrac++
	}
	if s.Interrupted {
		m.CIFrac++
	}
	m.MeanSp += s.SetpointC
	if s.MaxColdAisle > m.MaxCold {
		m.MaxCold = s.MaxColdAisle
	}
}

// Finish returns the metrics with the counts divided into fractions and the
// set-point sum into a mean.
func (m Metrics) Finish() Metrics {
	if m.Steps > 0 {
		n := float64(m.Steps)
		m.TSVFrac /= n
		m.TrueTSVFrac /= n
		m.CIFrac /= n
		m.MeanSp /= n
	}
	return m
}

// Loop is the closed control loop of the paper's evaluation (§5): decide a
// set-point from the recorded history, latch it, advance the plant one
// sample period, record the sample and account it. Every fleet room and
// every experiment steps a Loop, so a change to the step reaches Table 5,
// the fault matrix, the figures and crash recovery alike. Per-step extras —
// a room's WAL record, an experiment's fault-clear detection — happen
// between Step calls.
type Loop struct {
	Policy  control.Policy // raw, or wrapped in a *safety.Supervisor
	Trace   *dataset.Trace // every advanced sample, warm-up included
	Metrics Metrics        // the executed steps, not yet Finished

	tb *testbed.Testbed
	// A fleet room's Config hooks, called with its index room.
	quantize func(spC float64) float64
	actuate  func(room int, spC float64) error
	publish  func(room int, s testbed.Sample)
	room     int

	periodS, coldLimitC float64
	hash                uint64
	last                testbed.Sample // the most recently advanced sample
}

// NewLoop builds a loop over a prepared plant with an empty trace sized to
// its sensor deployment. coldLimitC is the thermal-safety limit the TSV
// fractions count against.
func NewLoop(tb *testbed.Testbed, pol control.Policy, coldLimitC float64) *Loop {
	period := tb.Config().SamplePeriodS
	return &Loop{
		tb: tb, Policy: pol,
		Trace:   dataset.NewTrace(period, len(tb.Sensors.ACU), len(tb.Sensors.DC)),
		periodS: period, coldLimitC: coldLimitC, hash: fnvOffset,
	}
}

// Advance advances the plant one sample period under its latched set-point
// and records the sample, deciding and accounting nothing: the warm-up, and
// the recovery replay below a restored snapshot.
func (l *Loop) Advance() testbed.Sample {
	s := l.tb.Advance()
	l.Trace.Append(s)
	l.last = s
	return s
}

// Step executes one control step: run the policy on the trace tail,
// quantize, actuate the set-point (or latch it on the plant directly),
// advance, record and account. An actuation error aborts the step before
// the plant advances.
func (l *Loop) Step() (sp float64, s testbed.Sample, err error) { return l.step(true) }

// step is Step; with live false it skips the actuate and publish hooks,
// which is how recovery replay re-derives a logged step off the field bus.
func (l *Loop) step(live bool) (sp float64, s testbed.Sample, err error) {
	sp = l.Policy.Decide(l.Trace, l.Trace.Len()-1)
	if l.quantize != nil {
		sp = l.quantize(sp)
	}
	if live && l.actuate != nil {
		if err = l.actuate(l.room, sp); err != nil {
			return sp, s, err
		}
	} else {
		l.tb.SetSetpoint(sp)
	}
	s = l.Advance()
	if live && l.publish != nil {
		l.publish(l.room, s)
	}
	l.Metrics.Add(&s, l.periodS, l.coldLimitC)
	l.mix(sp)
	l.mix(s.MaxColdAisle)
	l.mix(s.TrueMaxColdC)
	l.mix(s.ACUPowerKW)
	return sp, s, nil
}

// mix folds v into the FNV-1a trajectory hash.
func (l *Loop) mix(v float64) {
	bits := math.Float64bits(v)
	for s := 0; s < 64; s += 8 {
		l.hash = (l.hash ^ (bits >> s & 0xff)) * fnvPrime
	}
}
