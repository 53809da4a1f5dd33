package experiment

import (
	"fmt"
	"io"
	"time"
)

// Report renders a full evaluation (tables + figure summaries) as markdown,
// so a run of the harness leaves a reviewable artifact behind. teslabench
// writes it with -report.
type Report struct {
	Title     string
	ScaleName string
	Generated time.Time

	Table3 *Table3Result
	Table4 *Table4Result
	Table5 *Table5Result
	Study  *AblationStudy
	Fault  *FaultInjectionResult
	Matrix *FaultMatrix
	Sched  *FleetSchedulingStudy
}

// WriteMarkdown renders every populated section.
func (r *Report) WriteMarkdown(w io.Writer) error {
	title := r.Title
	if title == "" {
		title = "TESLA evaluation report"
	}
	if _, err := fmt.Fprintf(w, "# %s\n\nscale: %s", title, r.ScaleName); err != nil {
		return err
	}
	if !r.Generated.IsZero() {
		if _, err := fmt.Fprintf(w, " · generated %s", r.Generated.Format(time.RFC3339)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}

	if r.Table3 != nil {
		if _, err := fmt.Fprintf(w, "\n## Table 3 — DC temperature MAPE (%d windows)\n\n", r.Table3.Windows); err != nil {
			return err
		}
		if err := writeMDTable(w,
			[]string{"Model", "MAPE (%)"},
			[][]string{
				{"TESLA (ours)", fmt.Sprintf("%.2f", r.Table3.TESLAMape)},
				{"Lazic et al. [20]", fmt.Sprintf("%.2f", r.Table3.LazicMape)},
				{"Wang et al. [42]", fmt.Sprintf("%.2f", r.Table3.WangMape)},
			}); err != nil {
			return err
		}
	}
	if r.Table4 != nil {
		if _, err := fmt.Fprintf(w, "\n## Table 4 — cooling energy MAPE (%d windows)\n\n", r.Table4.Windows); err != nil {
			return err
		}
		if err := writeMDTable(w,
			[]string{"Model", "MAPE (%)"},
			[][]string{
				{"TESLA (ours)", fmt.Sprintf("%.2f", r.Table4.TESLAMape)},
				{"MLP [38]", fmt.Sprintf("%.2f", r.Table4.MLPMape)},
				{"XGBoost [7]", fmt.Sprintf("%.2f", r.Table4.GBTMape)},
				{"Random Forest [26]", fmt.Sprintf("%.2f", r.Table4.ForestMape)},
			}); err != nil {
			return err
		}
	}
	if r.Table5 != nil {
		if _, err := fmt.Fprintf(w, "\n## Table 5 — end-to-end performance\n\n"); err != nil {
			return err
		}
		rows := make([][]string, 0, len(r.Table5.Rows))
		for _, row := range r.Table5.Rows {
			rows = append(rows, []string{
				row.Load.String(), row.Policy,
				fmt.Sprintf("%.2f", row.CEkWh),
				fmt.Sprintf("%.2f", row.SavingPct),
				fmt.Sprintf("%.2f", 100*row.TSVFrac),
				fmt.Sprintf("%.2f", 100*row.CIFrac),
			})
		}
		if err := writeMDTable(w,
			[]string{"Load", "Policy", "CE (kWh)", "Saving (%)", "TSV (%)", "CI (%)"}, rows); err != nil {
			return err
		}
	}
	if r.Study != nil {
		if _, err := fmt.Fprintf(w, "\n## Ablations (%s load)\n\n", r.Study.Load); err != nil {
			return err
		}
		rows := make([][]string, 0, len(r.Study.Results))
		for _, res := range r.Study.Results {
			rows = append(rows, []string{
				string(res.Ablation),
				fmt.Sprintf("%.2f", res.CEkWh),
				fmt.Sprintf("%.2f", 100*res.TSVFrac),
				fmt.Sprintf("%.2f", 100*res.CIFrac),
				fmt.Sprintf("%.3f", res.SetpointChurnC),
			})
		}
		if err := writeMDTable(w,
			[]string{"Variant", "CE (kWh)", "TSV (%)", "CI (%)", "Churn (°C/min)"}, rows); err != nil {
			return err
		}
	}
	if r.Fault != nil {
		if _, err := fmt.Fprintf(w, "\n## Fault injection — cold-aisle sensor %d stuck at %.1f °C\n\n",
			r.Fault.StuckSensor, r.Fault.StuckAtC); err != nil {
			return err
		}
		if err := writeMDTable(w,
			[]string{"Run", "CE (kWh)", "TSV (%)", "Mean set-point (°C)"},
			[][]string{
				{"healthy", fmt.Sprintf("%.2f", r.Fault.Healthy.CEkWh),
					fmt.Sprintf("%.2f", 100*r.Fault.Healthy.TSVFrac),
					fmt.Sprintf("%.2f", r.Fault.Healthy.MeanSp)},
				{"faulty", fmt.Sprintf("%.2f", r.Fault.Faulty.CEkWh),
					fmt.Sprintf("%.2f", 100*r.Fault.Faulty.TSVFrac),
					fmt.Sprintf("%.2f", r.Fault.Faulty.MeanSp)},
			}); err != nil {
			return err
		}
	}
	if r.Matrix != nil {
		if _, err := fmt.Fprintf(w, "\n## Fault matrix — supervised TESLA (%s load)\n\n"+
			"Healthy supervised baseline: CE %.2f kWh, true TSV %.2f%%. \"True TSV\" scores\n"+
			"the ground-truth cold-aisle maximum, immune to the injected telemetry\n"+
			"corruption — only the excess over the healthy baseline is attributable to a\n"+
			"fault; recovery is the time from the fault clearing until the supervisor\n"+
			"returns to its normal stage with the plant inside the limit.\n\n",
			r.Matrix.Load, r.Matrix.Healthy.CEkWh, 100*r.Matrix.Healthy.TrueTSVFrac); err != nil {
			return err
		}
		rows := make([][]string, 0, len(r.Matrix.Rows))
		for _, row := range r.Matrix.Rows {
			rec := "never"
			if row.RecoverySteps >= 0 {
				rec = fmt.Sprintf("%d min", row.RecoverySteps)
			}
			rows = append(rows, []string{
				row.Scenario, row.Class,
				fmt.Sprintf("%.2f", 100*row.TSVFrac),
				fmt.Sprintf("%.2f", 100*row.TrueTSVFrac),
				fmt.Sprintf("%+.2f", row.EnergyDeltaKWh),
				rec,
				fmt.Sprintf("%d", row.Escalations),
				row.MaxLevel.String(),
			})
		}
		if err := writeMDTable(w,
			[]string{"Scenario", "Class", "TSV (%)", "True TSV (%)", "ΔCE (kWh)", "Recovery", "Escalations", "Max level"},
			rows); err != nil {
			return err
		}
	}
	if r.Sched != nil {
		if _, err := fmt.Fprintf(w, "\n## Fleet scheduling study — %d heterogeneous rooms × %d batch jobs\n\n"+
			"Joint score = cooling energy (kWh) + 0.25 × true-violation room-steps: the\n"+
			"co-optimization objective. Scheduler modes: none = immediate round-robin\n"+
			"placement, defer = round-robin + thermal deferral, full = headroom-aware\n"+
			"placement + deferral + migration off stressed rooms. Under TESLA the full\n"+
			"scheduler improves the joint score by %.1f%% over no scheduler.\n\n",
			r.Sched.Rooms, r.Sched.Jobs, r.Sched.JointImprovementPct("tesla")); err != nil {
			return err
		}
		rows := make([][]string, 0, len(r.Sched.Cells))
		for _, c := range r.Sched.Cells {
			rows = append(rows, []string{
				c.Policy, c.Mode,
				fmt.Sprintf("%.2f", c.CoolingKWh),
				fmt.Sprintf("%.2f", c.PeakITKW),
				fmt.Sprintf("%.2f", 100*c.TrueTSVFrac),
				fmt.Sprintf("%.2f", c.JointScore),
				fmt.Sprintf("%d", c.Completed),
				fmt.Sprintf("%.0f", c.MeanWaitS),
				fmt.Sprintf("%d", c.Migrations),
			})
		}
		if err := writeMDTable(w,
			[]string{"Policy", "Scheduler", "CE (kWh)", "Peak IT (kW)", "True TSV (%)", "Joint", "Done", "Wait (s)", "Migr"},
			rows); err != nil {
			return err
		}
	}
	return nil
}

func writeMDTable(w io.Writer, header []string, rows [][]string) error {
	line := "|"
	sep := "|"
	for _, h := range header {
		line += " " + h + " |"
		sep += "---|"
	}
	if _, err := fmt.Fprintln(w, line); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, sep); err != nil {
		return err
	}
	for _, row := range rows {
		if len(row) != len(header) {
			return fmt.Errorf("experiment: report row has %d cells, header has %d", len(row), len(header))
		}
		out := "|"
		for _, c := range row {
			out += " " + c + " |"
		}
		if _, err := fmt.Fprintln(w, out); err != nil {
			return err
		}
	}
	return nil
}
