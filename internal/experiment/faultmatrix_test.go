package experiment

import (
	"reflect"
	"strings"
	"testing"

	"tesla/internal/faults"
	"tesla/internal/safety"
	"tesla/internal/workload"
)

func TestFaultMatrixCoverageAndSafety(t *testing.T) {
	a := sharedArtifacts(t)
	fm, err := RunFaultMatrix(a, workload.Medium, 5400, 17)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(faults.Matrix(0, 5400, 17)); len(fm.Rows) != want {
		t.Fatalf("%d rows, want %d", len(fm.Rows), want)
	}
	if fm.Healthy.CEkWh <= 0 || fm.Healthy.Steps == 0 {
		t.Fatalf("healthy baseline empty: %+v", fm.Healthy)
	}
	if fm.Healthy.TrueTSVFrac != 0 {
		t.Fatalf("healthy supervised baseline has %.2f%% true violations", 100*fm.Healthy.TrueTSVFrac)
	}

	classes := map[string]bool{}
	for _, r := range fm.Rows {
		classes[r.Class] = true
		if r.Steps != fm.Healthy.Steps {
			t.Fatalf("%s ran %d steps, healthy ran %d", r.Scenario, r.Steps, fm.Healthy.Steps)
		}
		// The acceptance bar: no physical ASHRAE violation may be
		// attributable to faulty telemetry. Sensor and telemetry faults leave
		// the plant untouched, so the ground-truth violation fraction must be
		// exactly zero there.
		if (r.Class == "sensor" || r.Class == "telemetry") && r.TrueTSVFrac > 0 {
			t.Errorf("%s (%s): %.2f%% true violations on corrupted telemetry",
				r.Scenario, r.Class, 100*r.TrueTSVFrac)
		}
	}
	for _, c := range []string{"sensor", "actuator", "telemetry"} {
		if !classes[c] {
			t.Errorf("fault class %q missing from the matrix", c)
		}
	}

	byName := map[string]FaultRow{}
	for _, r := range fm.Rows {
		byName[r.Scenario] = r
	}
	// The compressor cutout physically removes cooling: the supervisor must
	// notice (escalate at least to the backstop) and then recover within the
	// second half of the window.
	cut, ok := byName["compressor-cutout"]
	if !ok {
		t.Fatal("compressor-cutout scenario missing")
	}
	if cut.MaxLevel < safety.LevelBackstop {
		t.Errorf("cutout peaked at %v, want at least backstop", cut.MaxLevel)
	}
	if cut.RecoverySteps < 0 {
		t.Error("supervisor never recovered from the compressor cutout")
	}
	// A frozen telemetry feed must be detected (escalation) even though the
	// plant itself is healthy.
	if gap, ok := byName["telemetry-gap"]; !ok || gap.Escalations == 0 {
		t.Errorf("telemetry gap went unnoticed: %+v", gap)
	}
	if !strings.Contains(fm.String(), "compressor-cutout") {
		t.Error("String() must render every scenario")
	}
}

// TestFaultMatrixDeterministic asserts bit-identical sweeps across runs; CI
// executes this under -cpu 1,4 so the comparison also spans worker counts.
func TestFaultMatrixDeterministic(t *testing.T) {
	a := sharedArtifacts(t)
	run := func() FaultMatrix {
		fm, err := RunFaultMatrix(a, workload.Medium, 3600, 23)
		if err != nil {
			t.Fatal(err)
		}
		return fm
	}
	fm1, fm2 := run(), run()
	if !reflect.DeepEqual(fm1, fm2) {
		t.Fatalf("fault matrix not reproducible:\n%v\nvs\n%v", fm1, fm2)
	}
}
