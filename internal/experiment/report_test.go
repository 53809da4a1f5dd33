package experiment

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"tesla/internal/fleet"
	"tesla/internal/workload"
)

func TestReportRendersAllSections(t *testing.T) {
	r := &Report{
		Title:     "test report",
		ScaleName: "ci",
		Generated: time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC),
		Table3:    &Table3Result{TESLAMape: 1, LazicMape: 2, WangMape: 3, Windows: 10},
		Table4:    &Table4Result{TESLAMape: 4, MLPMape: 5, GBTMape: 6, ForestMape: 7, Windows: 11},
		Table5: &Table5Result{Rows: []Table5Row{
			{Metrics: Metrics{Policy: "fixed", Load: workload.Idle, Metrics: fleet.Metrics{CEkWh: 20}}, SavingPct: 0},
			{Metrics: Metrics{Policy: "tesla", Load: workload.Idle, Metrics: fleet.Metrics{CEkWh: 18, TSVFrac: 0}}, SavingPct: 10},
		}},
		Study: &AblationStudy{Load: workload.Medium, Results: []AblationResult{
			{Ablation: AblationNone, Metrics: Metrics{Metrics: fleet.Metrics{CEkWh: 15}}, SetpointChurnC: 0.2},
		}},
		Fault: &FaultInjectionResult{
			Healthy:     Metrics{Metrics: fleet.Metrics{CEkWh: 15, MeanSp: 25}},
			Faulty:      Metrics{Metrics: fleet.Metrics{CEkWh: 16, MeanSp: 24}},
			StuckSensor: 5, StuckAtC: 21.5,
		},
	}
	var buf bytes.Buffer
	if err := r.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# test report", "Table 3", "Table 4", "Table 5",
		"Ablations (medium load)", "Fault injection",
		"| TESLA (ours) | 1.00 |", "| tesla | 18.00 | 10.00 | 0.00 | 0.00 |",
		"generated 2026-07-06",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReportEmptySectionsSkipped(t *testing.T) {
	r := &Report{ScaleName: "ci"}
	var buf bytes.Buffer
	if err := r.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "Table 3") || strings.Contains(out, "Fault") {
		t.Fatalf("empty sections rendered:\n%s", out)
	}
	if !strings.Contains(out, "TESLA evaluation report") {
		t.Fatalf("default title missing")
	}
}

func TestWriteMDTableRowMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := writeMDTable(&buf, []string{"a", "b"}, [][]string{{"1"}}); err == nil {
		t.Fatalf("mismatched row accepted")
	}
}
