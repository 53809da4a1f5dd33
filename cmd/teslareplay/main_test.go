package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tesla/internal/dataset"
	"tesla/internal/safety"
	"tesla/internal/testbed"
	"tesla/internal/workload"
)

// recordTrace records n steps of the default testbed at a constant load,
// round-tripped through the CSV format -trace reads. fault, when set, is
// applied to the plant before the first step.
func recordTrace(t *testing.T, n int, fault func(*testbed.Testbed)) *dataset.Trace {
	t.Helper()
	cfg := testbed.DefaultConfig()
	tb, err := testbed.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb.UseProfile(workload.Constant{Util: 0.25})
	tb.SetSetpoint(23)
	if fault != nil {
		fault(tb)
	}
	tr := dataset.NewTrace(cfg.SamplePeriodS, len(tb.Sensors.ACU), len(tb.Sensors.DC))
	for i := 0; i < n; i++ {
		tr.Append(tb.Advance())
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := dataset.ReadCSV(&buf, cfg.SamplePeriodS)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// supervisorConfig is the deployment default teslareplay builds at -limit 22.
func supervisorConfig() safety.Config {
	acu := testbed.DefaultConfig().ACU
	return safety.DefaultConfig(22, acu.SetpointMinC, acu.SetpointMaxC)
}

func quarantines(t *testing.T, tr *dataset.Trace) []safety.Event {
	t.Helper()
	events, err := scanSensors(tr, supervisorConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Kind != safety.EventQuarantine {
			t.Errorf("scanSensors returned a %s event", e.Kind)
		}
	}
	return events
}

func TestScanSensorsHealthyTraceIsClean(t *testing.T) {
	if got := quarantines(t, recordTrace(t, 40, nil)); len(got) != 0 {
		t.Fatalf("healthy trace quarantined probes: %+v", got)
	}
}

// TestScanSensorsQuarantinesFailedProbe: a probe frozen at a plausible
// reading is caught by the flat-line rule on exactly that sensor, as soon as
// the validation window is full and no earlier.
func TestScanSensorsQuarantinesFailedProbe(t *testing.T) {
	got := quarantines(t, recordTrace(t, 40, func(tb *testbed.Testbed) { tb.Sensors.FailDC(5, 21.5) }))
	if len(got) == 0 {
		t.Fatal("frozen probe 5 never quarantined")
	}
	if w := supervisorConfig().Window; got[0].Step != w-1 {
		t.Errorf("first quarantine at step %d, want %d — the first step with a full %d-step window", got[0].Step, w-1, w)
	}
	for _, e := range got {
		if e.Sensor != 5 {
			t.Errorf("healthy sensor %d quarantined at step %d: %s", e.Sensor, e.Step, e.Detail)
		} else if !strings.Contains(e.Detail, "flat-lined") {
			t.Errorf("sensor 5 quarantined as %q, want flat-lined", e.Detail)
		}
	}
}

// TestScanSensorsQuarantinesSpike: a single-step jump on one cold-aisle
// probe departs from the cold-aisle consensus and is quarantined at that
// step.
func TestScanSensorsQuarantinesSpike(t *testing.T) {
	const sensor, step = 3, 25
	tr := recordTrace(t, 40, nil)
	tr.DCTemps[sensor][step] += 4
	got := quarantines(t, tr)
	if len(got) != 1 || got[0].Sensor != sensor || got[0].Step != step || !strings.Contains(got[0].Detail, "spike") {
		t.Fatalf("want one spike quarantine of sensor %d at step %d, got %+v", sensor, step, got)
	}
}

// TestRunRejectsZeroStride: the evaluation loop advances by the stride, so
// a stride below 1 must be refused before any model is trained.
func TestRunRejectsZeroStride(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := recordTrace(t, 40, nil).WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, stride := range []int{0, -3} {
		if err := run(path, "ci", stride, 22); err == nil || !strings.Contains(err.Error(), "stride") {
			t.Errorf("stride %d: err = %v, want a stride error", stride, err)
		}
	}
}
