package experiment

import (
	"fmt"

	"tesla/internal/fleet"
	"tesla/internal/testbed"
	"tesla/internal/workload"
)

// The paper's §8 future-work direction: integrate TESLA with server-side
// energy-aware workload management (§7 discusses Thunderbolt-style power
// capping as the complementary mechanism). DeferralStudy runs the TESLA
// controller twice over the same bursty batch workload — once admitting
// every job immediately and once gating deferrable jobs on an IT power
// budget — and compares peak IT power, cooling energy and job completion.
// The deferring scheduler's signal is generic headroom; here it is the
// remaining power budget in kW-equivalents.

// DeferralOutcome is one leg of the study: the controlled window's
// metrics, its peak IT power and the batch jobs it completed.
type DeferralOutcome struct {
	fleet.Metrics
	PeakITKW  float64
	Completed int
}

// DeferralStudy is the paired comparison.
type DeferralStudy struct {
	Immediate DeferralOutcome // all jobs admitted at submission time
	Deferred  DeferralOutcome // deferrable jobs gated on thermal headroom
	Jobs      int
}

// String summarizes the study.
func (s DeferralStudy) String() string {
	return fmt.Sprintf(
		"deferral study (%d jobs): immediate CE=%.2f kWh peakIT=%.2f kW done=%d | deferred CE=%.2f kWh peakIT=%.2f kW done=%d",
		s.Jobs, s.Immediate.CEkWh, s.Immediate.PeakITKW, s.Immediate.Completed,
		s.Deferred.CEkWh, s.Deferred.PeakITKW, s.Deferred.Completed)
}

// RunDeferralStudy executes both legs. The workload is a base load plus a
// burst of deferrable batch jobs submitted together at one hour in; the
// window is long enough for every job to complete in both legs, so the IT
// work done is identical and only its *timing* differs.
func RunDeferralStudy(a *Artifacts, hours float64, seed uint64) (DeferralStudy, error) {
	study := DeferralStudy{Jobs: 6}
	runLeg := func(gate bool) (DeferralOutcome, error) {
		var out DeferralOutcome
		cfg := testbed.DefaultConfig()
		cfg.Seed = seed
		tb, err := testbed.New(cfg)
		if err != nil {
			return out, err
		}
		orch := workload.NewOrchestrator(tb.Cluster)

		// Admission signal: remaining IT power budget (kW). The scheduler's
		// HeadroomC threshold gates admission at 1 kW of remaining budget.
		const powerBudgetKW = 5.2
		latestHeadroom := powerBudgetKW
		sched := workload.NewDeferringScheduler(orch, func() float64 {
			if !gate {
				return 100 // never defer
			}
			return latestHeadroom
		})
		tb.UseOrchestrator(orch)

		controller, err := a.NewTESLAPolicy(seed)
		if err != nil {
			return out, err
		}

		l := fleet.NewLoop(tb, controller, 22)
		tb.SetSetpoint(23)
		// Baseline interactive load on every node.
		if err := sched.Submit(workload.DeferredJob{
			Job: workload.Job{Name: "interactive", Level: 0.15, DurationS: hours*3600 + 7200, Parallelism: 21},
		}, 0); err != nil {
			return out, err
		}
		warm := 60
		steps := int(hours * 3600 / cfg.SamplePeriodS)
		for i := 0; i < warm+steps; i++ {
			now := tb.TimeS()
			if i == warm+60 {
				// The burst: six heavy batch jobs land at once.
				for j := 0; j < study.Jobs; j++ {
					if err := sched.Submit(workload.DeferredJob{
						Job: workload.Job{
							Name:        fmt.Sprintf("batch-%d", j),
							Level:       0.55,
							DurationS:   2400,
							Parallelism: 3,
						},
						Deferrable: true,
						MaxDeferS:  2.5 * 3600,
					}, now); err != nil {
						return out, err
					}
				}
			}
			if err := sched.Tick(now); err != nil {
				return out, err
			}
			var s testbed.Sample
			if i < warm {
				s = l.Advance()
			} else if _, s, err = l.Step(); err != nil {
				return out, err
			}
			latestHeadroom = powerBudgetKW - s.TotalIT
			if i >= warm && s.TotalIT > out.PeakITKW {
				out.PeakITKW = s.TotalIT
			}
		}
		out.Metrics = l.Metrics.Finish()
		for j := 0; j < study.Jobs; j++ {
			out.Completed += orch.Completed[fmt.Sprintf("batch-%d", j)] / 3 // pods per job
		}
		return out, nil
	}

	var err error
	if study.Immediate, err = runLeg(false); err != nil {
		return study, fmt.Errorf("experiment: immediate leg: %w", err)
	}
	if study.Deferred, err = runLeg(true); err != nil {
		return study, fmt.Errorf("experiment: deferred leg: %w", err)
	}
	return study, nil
}
