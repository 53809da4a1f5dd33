package experiment

import (
	"fmt"

	"tesla/internal/control"
	"tesla/internal/testbed"
	"tesla/internal/workload"
)

// Figure2 reproduces the paper's Figure 2: the ACU power time series under a
// fixed 27 °C set-point, showing the variance induced by server-load and
// compressor-cycle noise even though the set-point never moves.
func Figure2(seed uint64) (*Figure, error) {
	cfg := testbed.DefaultConfig()
	cfg.Seed = seed
	tb, err := testbed.New(cfg)
	if err != nil {
		return nil, err
	}
	tb.UseProfile(workload.NewDiurnal(workload.Medium, 43200, seed))
	tb.SetSetpoint(27)
	tb.Warmup(4 * 3600)

	f := &Figure{
		ID:      "fig2",
		Caption: "ACU power time series with set-point fixed at 27°C",
		XLabel:  "elapsed minutes", YLabel: "ACU power (kW)",
	}
	s := Series{Name: "ACU power"}
	for i := 0; i < 90; i++ {
		sample := tb.Advance()
		s.X = append(s.X, float64(i))
		s.Y = append(s.Y, sample.ACUPowerKW)
	}
	f.Series = []Series{s}
	return f, nil
}

// Figure3 reproduces Figure 3: a forced cooling interruption (set-point
// jumped far above the inlet temperature) drives the max cold-aisle
// temperature up rapidly, and recovery after the set-point drops back takes
// roughly twice as long.
func Figure3(seed uint64) (*Figure, *Figure, error) {
	cfg := testbed.DefaultConfig()
	cfg.Seed = seed
	tb, err := testbed.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	tb.UseProfile(workload.Constant{Util: 0.35, Label: "fig3-load"})
	tb.SetSetpoint(22)
	tb.Warmup(4 * 3600)

	power := Series{Name: "ACU power"}
	cold := Series{Name: "max cold aisle"}
	for i := 0; i < 30; i++ {
		switch i {
		case 0:
			tb.SetSetpoint(34) // interruption: set-point far above inlet
		case 10:
			tb.SetSetpoint(20) // recovery
		}
		s := tb.Advance()
		power.X = append(power.X, float64(i))
		power.Y = append(power.Y, s.ACUPowerKW)
		cold.X = append(cold.X, float64(i))
		cold.Y = append(cold.Y, s.MaxColdAisle)
	}
	fa := &Figure{ID: "fig3a", Caption: "ACU power under cooling interruption (first 10 min)",
		XLabel: "elapsed minutes", YLabel: "ACU power (kW)", Series: []Series{power}}
	fb := &Figure{ID: "fig3b", Caption: "max cold aisle temperature: fast rise, slow recovery",
		XLabel: "elapsed minutes", YLabel: "temperature (°C)", Series: []Series{cold}}
	return fa, fb, nil
}

// Figure4 reproduces Figure 4: a set-point dip (28.5 → 27.5 → 28.6 over four
// minutes) costs extra ACU power even though the lower set-point is never
// reached.
func Figure4(seed uint64) (*Figure, *Figure, error) {
	cfg := testbed.DefaultConfig()
	cfg.PhysicsDtS = 1
	cfg.SamplePeriodS = 10 // finer sampling to resolve the 4-minute episode
	cfg.Seed = seed
	tb, err := testbed.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	tb.UseProfile(workload.Constant{Util: 0.3, Label: "fig4-load"})
	tb.SetSetpoint(28.5)
	tb.Warmup(4 * 3600)

	sp := Series{Name: "set-point"}
	inlet := Series{Name: "actual inlet temperature"}
	power := Series{Name: "ACU power"}
	steps := 5 * 60 / int(cfg.SamplePeriodS)
	for i := 0; i < steps; i++ {
		tMin := float64(i) * cfg.SamplePeriodS / 60
		switch {
		case tMin < 2:
			tb.SetSetpoint(28.5)
		case tMin < 4:
			tb.SetSetpoint(27.5)
		default:
			tb.SetSetpoint(28.6)
		}
		s := tb.Advance()
		sp.X = append(sp.X, tMin)
		sp.Y = append(sp.Y, s.SetpointC)
		inlet.X = append(inlet.X, tMin)
		inlet.Y = append(inlet.Y, mean(s.ACUTemps))
		power.X = append(power.X, tMin)
		power.Y = append(power.Y, s.ACUPowerKW)
	}
	fa := &Figure{ID: "fig4a", Caption: "set-point dip and actual inlet temperature",
		XLabel: "elapsed minutes", YLabel: "temperature (°C)", Series: []Series{sp, inlet}}
	fb := &Figure{ID: "fig4b", Caption: "ACU power responding to the never-achieved set-point",
		XLabel: "elapsed minutes", YLabel: "ACU power (kW)", Series: []Series{power}}
	return fa, fb, nil
}

// PolicyFigures reproduces Figures 9–12: a 12-hour medium-load run of the
// given policy, reporting (a) the computed set-point and actual inlet
// temperature, (b) ACU power, and (c) the max cold-aisle temperature against
// the 22 °C limit.
func PolicyFigures(p control.Policy, idPrefix string, evalS float64, seed uint64) ([]*Figure, Metrics, error) {
	rc := DefaultRunConfig(p, workload.Medium, seed)
	rc.EvalS = evalS
	tr, m, err := Run(rc)
	if err != nil {
		return nil, m, err
	}
	start := tr.Len() - m.Steps
	sp := Series{Name: "computed set-point"}
	inlet := Series{Name: "actual inlet temperature"}
	power := Series{Name: "ACU power"}
	cold := Series{Name: "max cold aisle temperature"}
	limit := Series{Name: "cold aisle limit"}
	for i := start; i < tr.Len(); i++ {
		h := (tr.TimeS[i] - tr.TimeS[start]) / 3600
		sp.X = append(sp.X, h)
		sp.Y = append(sp.Y, tr.Setpoint[i])
		var a float64
		for _, s := range tr.ACUTemps {
			a += s[i]
		}
		inlet.X = append(inlet.X, h)
		inlet.Y = append(inlet.Y, a/float64(tr.Na()))
		power.X = append(power.X, h)
		power.Y = append(power.Y, tr.ACUPower[i])
		cold.X = append(cold.X, h)
		cold.Y = append(cold.Y, tr.MaxCold[i])
		limit.X = append(limit.X, h)
		limit.Y = append(limit.Y, 22)
	}
	figs := []*Figure{
		{ID: idPrefix + "a", Caption: p.Name() + ": set-point and actual inlet temperature",
			XLabel: "elapsed hours", YLabel: "temperature (°C)", Series: []Series{sp, inlet}},
		{ID: idPrefix + "b", Caption: p.Name() + ": ACU power",
			XLabel: "elapsed hours", YLabel: "ACU power (kW)", Series: []Series{power}},
		{ID: idPrefix + "c", Caption: p.Name() + ": max cold aisle temperature vs limit",
			XLabel: "elapsed hours", YLabel: "temperature (°C)", Series: []Series{cold, limit}},
	}
	return figs, m, nil
}

// Figure8 reproduces Figure 8: the average server power over a TESLA-driven
// medium-load run, and snapshots of the Bayesian optimizer's mean objective
// and constraint functions at two time instants.
func Figure8(a *Artifacts, evalS float64, seed uint64) ([]*Figure, error) {
	tesla, err := a.NewTESLAPolicy(seed)
	if err != nil {
		return nil, err
	}
	rc := DefaultRunConfig(tesla, workload.Medium, seed)
	rc.EvalS = evalS
	tb, err := rc.newTestbed()
	if err != nil {
		return nil, err
	}
	l, evalSteps, err := rc.warmLoop(tb)
	if err != nil {
		return nil, err
	}

	snapAt := map[int]bool{evalSteps / 3: true, 2 * evalSteps / 3: true}
	powerSeries := Series{Name: "average server power"}
	var snaps []*Figure
	for i := 0; i < evalSteps; i++ {
		_, s, err := l.Step()
		if err != nil {
			return nil, err
		}
		if snapAt[i] {
			if res := tesla.LastResult(); res != nil {
				hours := float64(i) * rc.Testbed.SamplePeriodS / 3600
				obj := Series{Name: fmt.Sprintf("objective @%.1fh", hours)}
				con := Series{Name: fmt.Sprintf("constraint @%.1fh", hours)}
				lo, hi := rc.Testbed.ACU.SetpointMinC, rc.Testbed.ACU.SetpointMaxC
				for x := lo; x <= hi+1e-9; x += 0.25 {
					om, _ := res.ObjGP.Posterior(x)
					cm, _ := res.ConGP.Posterior(x)
					obj.X = append(obj.X, x)
					obj.Y = append(obj.Y, -om) // paper plots the maximized (negated) objective
					con.X = append(con.X, x)
					con.Y = append(con.Y, cm)
				}
				snaps = append(snaps, &Figure{
					ID:      fmt.Sprintf("fig8b-%d", len(snaps)+1),
					Caption: fmt.Sprintf("GP mean objective and constraint at %.1f h (chosen %.2f°C)", hours, res.X),
					XLabel:  "set-point (°C)", YLabel: "GP mean",
					Series: []Series{obj, con},
				})
			}
		}
		powerSeries.X = append(powerSeries.X, float64(i)*rc.Testbed.SamplePeriodS/3600)
		powerSeries.Y = append(powerSeries.Y, s.AvgServerKW)
	}
	figs := []*Figure{{
		ID:      "fig8a",
		Caption: "average server power over the testing period (medium load)",
		XLabel:  "elapsed hours", YLabel: "average server power (kW)",
		Series: []Series{powerSeries},
	}}
	figs = append(figs, snaps...)
	return figs, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	if len(xs) == 0 {
		return 0
	}
	return s / float64(len(xs))
}
