// Package experiment is the evaluation harness: it runs closed-loop control
// experiments on the simulated testbed, computes the paper's end-to-end
// metrics (cooling energy, thermal-safety violation, cooling interruption),
// and regenerates every table and figure of the evaluation section (§5–6).
package experiment

import (
	"fmt"

	"tesla/internal/control"
	"tesla/internal/dataset"
	"tesla/internal/fleet"
	"tesla/internal/testbed"
	"tesla/internal/workload"
)

// Metrics are the end-to-end quantities of Table 5 for one 12-hour run,
// labelled with the policy, load and window that produced them.
type Metrics struct {
	Policy string
	Load   workload.Setting
	HoursH float64
	fleet.Metrics
}

// String renders the metrics like a Table 5 row.
func (m Metrics) String() string {
	return fmt.Sprintf("%-6s %-7s CE=%6.2f kWh TSV=%5.1f%% CI=%5.1f%% meanSp=%5.2f°C maxCold=%5.2f°C",
		m.Policy, m.Load, m.CEkWh, 100*m.TSVFrac, 100*m.CIFrac, m.MeanSp, m.MaxCold)
}

// RunConfig describes one closed-loop experiment.
type RunConfig struct {
	Testbed  testbed.Config
	Profile  workload.Profile
	Policy   control.Policy
	WarmupS  float64 // recorded warm-up under the initial set-point
	EvalS    float64 // evaluation window (43200 s = 12 h in the paper)
	InitSpC  float64 // set-point during warm-up
	ColdLimC float64 // TSV threshold (22 °C)
}

// DefaultRunConfig assembles the paper's 12-hour evaluation for one policy
// and load setting.
func DefaultRunConfig(p control.Policy, load workload.Setting, seed uint64) RunConfig {
	cfg := testbed.DefaultConfig()
	cfg.Seed = seed
	return RunConfig{
		Testbed:  cfg,
		Profile:  workload.NewDiurnal(load, 43200, seed),
		Policy:   p,
		WarmupS:  3600,
		EvalS:    43200,
		InitSpC:  23,
		ColdLimC: 22,
	}
}

// newTestbed builds rc's plant under its workload with the warm-up
// set-point latched.
func (rc RunConfig) newTestbed() (*testbed.Testbed, error) {
	tb, err := testbed.New(rc.Testbed)
	if err != nil {
		return nil, err
	}
	tb.UseProfile(rc.Profile)
	tb.SetSetpoint(rc.InitSpC)
	return tb, nil
}

// warmLoop builds rc's closed loop over a prepared testbed and records the
// warm-up, so the policy has history from the first evaluated step. It
// returns the number of evaluation steps.
func (rc RunConfig) warmLoop(tb *testbed.Testbed) (*fleet.Loop, int, error) {
	evalSteps := int(rc.EvalS / rc.Testbed.SamplePeriodS)
	if evalSteps < 1 {
		return nil, 0, fmt.Errorf("experiment: evaluation window shorter than one step")
	}
	l := fleet.NewLoop(tb, rc.Policy, rc.ColdLimC)
	for i := 0; i < int(rc.WarmupS/rc.Testbed.SamplePeriodS); i++ {
		l.Advance()
	}
	return l, evalSteps, nil
}

// metrics labels a finished loop's accounting with rc's policy, load and
// window.
func (rc RunConfig) metrics(l *fleet.Loop) Metrics {
	m := Metrics{Policy: rc.Policy.Name(), HoursH: rc.EvalS / 3600, Metrics: l.Metrics.Finish()}
	if d, ok := rc.Profile.(*workload.Diurnal); ok {
		m.Load = d.Setting
	}
	return m
}

// Run executes the closed loop and returns the recorded trace (warm-up
// included; Metrics cover only the evaluation window) plus the metrics.
func Run(rc RunConfig) (*dataset.Trace, Metrics, error) {
	tb, err := rc.newTestbed()
	if err != nil {
		return nil, Metrics{}, err
	}
	return runLoopWithTrace(tb, rc)
}

// runLoopWithTrace drives a pre-built testbed (fault-injection experiments
// configure the sensor array before entering the loop).
func runLoopWithTrace(tb *testbed.Testbed, rc RunConfig) (*dataset.Trace, Metrics, error) {
	l, evalSteps, err := rc.warmLoop(tb)
	if err != nil {
		return nil, Metrics{}, err
	}
	for i := 0; i < evalSteps; i++ {
		if _, _, err := l.Step(); err != nil {
			return nil, Metrics{}, err
		}
	}
	return l.Trace, rc.metrics(l), nil
}
