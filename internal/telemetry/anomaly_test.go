package telemetry

import (
	"fmt"
	"testing"

	"tesla/internal/rng"
	"tesla/internal/testbed"
	"tesla/internal/workload"
)

func healthySeries(db *DB, name string, n int, seed uint64) {
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		db.Insert(name, nil, Point{TimeS: float64(i) * 60, Value: 20 + 0.2*r.Norm()})
	}
}

func TestDetectorHealthySeriesIsClean(t *testing.T) {
	db := NewDB()
	healthySeries(db, "dc", 30, 1)
	d := NewDetector(db)
	if got := d.ScanSeries("dc", nil, 29*60); len(got) != 0 {
		t.Fatalf("healthy series flagged: %+v", got)
	}
}

func TestDetectorStuckSeries(t *testing.T) {
	db := NewDB()
	for i := 0; i < 30; i++ {
		db.Insert("stuck", nil, Point{TimeS: float64(i) * 60, Value: 21.5})
	}
	d := NewDetector(db)
	got := d.ScanSeries("stuck", nil, 29*60)
	if len(got) != 1 || got[0].Kind != AnomalyStuck {
		t.Fatalf("stuck series not detected: %+v", got)
	}
	if got[0].Value != 21.5 {
		t.Fatalf("stuck value %g", got[0].Value)
	}
}

func TestDetectorStaleSeries(t *testing.T) {
	db := NewDB()
	healthySeries(db, "stale", 10, 2)
	d := NewDetector(db)
	// Query far in the future: newest sample is very old.
	got := d.ScanSeries("stale", nil, 10*60+1000)
	found := false
	for _, a := range got {
		if a.Kind == AnomalyStale {
			found = true
		}
	}
	if !found {
		t.Fatalf("stale series not detected: %+v", got)
	}
	// A series with no samples in the window at all is also stale.
	if got := d.ScanSeries("missing", nil, 100); len(got) != 1 || got[0].Kind != AnomalyStale {
		t.Fatalf("missing series not flagged stale: %+v", got)
	}
}

func TestDetectorSpike(t *testing.T) {
	db := NewDB()
	healthySeries(db, "spiky", 30, 3)
	db.Insert("spiky", nil, Point{TimeS: 15 * 60, Value: 95}) // electrical noise
	d := NewDetector(db)
	got := d.ScanSeries("spiky", nil, 29*60)
	found := false
	for _, a := range got {
		if a.Kind == AnomalySpike && a.Value == 95 {
			found = true
		}
	}
	if !found {
		t.Fatalf("spike not detected: %+v", got)
	}
}

func TestDetectorScanAllSortsAndParsesTags(t *testing.T) {
	db := NewDB()
	for i := 0; i < 30; i++ {
		db.Insert("dc_temp", map[string]string{"sensor": "4"}, Point{TimeS: float64(i) * 60, Value: 19})
	}
	healthySeries(db, "acu", 30, 4)
	d := NewDetector(db)
	got := d.ScanAll(29 * 60)
	if len(got) != 1 {
		t.Fatalf("want exactly the stuck tagged series flagged, got %+v", got)
	}
	if got[0].Series != "dc_temp,sensor=4" {
		t.Fatalf("series key %q", got[0].Series)
	}
}

func TestDetectorMinSamplesGate(t *testing.T) {
	db := NewDB()
	for i := 0; i < 3; i++ {
		db.Insert("short", nil, Point{TimeS: float64(i) * 60, Value: 21.5})
	}
	d := NewDetector(db)
	for _, a := range d.ScanSeries("short", nil, 2*60) {
		if a.Kind == AnomalyStuck {
			t.Fatalf("stuck check must wait for MinSamples: %+v", a)
		}
	}
}

func TestDetectorCatchesInjectedTestbedFault(t *testing.T) {
	// End-to-end: a frozen cold-aisle probe on the real line-protocol path
	// must surface as a stuck anomaly on exactly that series.
	db := NewDB()
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tb.UseProfile(workload.Constant{Util: 0.25})
	tb.Sensors.FailDC(5, 21.5)
	for i := 0; i < 20; i++ {
		s := tb.Advance()
		for j, v := range s.DCTemps {
			line := FormatLine("dc_temp", map[string]string{"sensor": fmt.Sprint(j)}, map[string]float64{"c": v}, s.TimeS)
			if err := db.IngestLine(line); err != nil {
				t.Fatal(err)
			}
		}
	}
	d := NewDetector(db)
	got := d.ScanAll(tb.TimeS())
	foundStuck := false
	for _, a := range got {
		if a.Kind == AnomalyStuck && a.Series == "dc_temp,field=c,sensor=5" {
			foundStuck = true
		}
		if a.Kind == AnomalyStuck && a.Series == "dc_temp,field=c,sensor=6" {
			t.Fatalf("healthy sensor flagged stuck")
		}
	}
	if !foundStuck {
		t.Fatalf("injected fault not detected; anomalies: %+v", got)
	}
}
