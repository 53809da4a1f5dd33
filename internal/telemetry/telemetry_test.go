package telemetry

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestInsertAndQuery(t *testing.T) {
	db := NewDB()
	tags := map[string]string{"sensor": "3"}
	for i := 0; i < 10; i++ {
		db.Insert("dc_temp", tags, Point{TimeS: float64(i), Value: 20 + float64(i)})
	}
	pts := db.Query("dc_temp", tags, 2, 5)
	if len(pts) != 4 {
		t.Fatalf("range query returned %d points, want 4", len(pts))
	}
	if pts[0].TimeS != 2 || pts[3].TimeS != 5 {
		t.Fatalf("range bounds wrong: %v", pts)
	}
	if got := db.Query("dc_temp", map[string]string{"sensor": "9"}, 0, 100); len(got) != 0 {
		t.Fatalf("unknown series returned points")
	}
	if db.Len() != 10 {
		t.Fatalf("Len = %d", db.Len())
	}
}

func TestLatestAndOutOfOrder(t *testing.T) {
	db := NewDB()
	db.Insert("m", nil, Point{TimeS: 5, Value: 1})
	db.Insert("m", nil, Point{TimeS: 2, Value: 2})
	db.Insert("m", nil, Point{TimeS: 9, Value: 3})
	p, ok := db.Latest("m", nil)
	if !ok || p.Value != 3 {
		t.Fatalf("Latest = %+v", p)
	}
	pts := db.Query("m", nil, 0, 100)
	if pts[0].TimeS != 2 || pts[2].TimeS != 9 {
		t.Fatalf("query must sort out-of-order inserts: %v", pts)
	}
	if _, ok := db.Latest("missing", nil); ok {
		t.Fatalf("Latest on missing series should fail")
	}
}

func TestLineProtocolRoundTrip(t *testing.T) {
	db := NewDB()
	line := FormatLine("server", map[string]string{"host": "node-03"},
		map[string]float64{"power_kw": 0.21, "cpu": 0.4}, 120)
	if err := db.IngestLine(line); err != nil {
		t.Fatal(err)
	}
	pts := db.Query("server", map[string]string{"host": "node-03", "field": "power_kw"}, 0, 1000)
	if len(pts) != 1 || math.Abs(pts[0].Value-0.21) > 1e-12 {
		t.Fatalf("roundtrip failed: %v", pts)
	}
	// Comments and blanks are ignored.
	if err := db.IngestLine("# comment"); err != nil {
		t.Fatal(err)
	}
	if err := db.IngestLine("   "); err != nil {
		t.Fatal(err)
	}
}

func TestIngestLineErrors(t *testing.T) {
	db := NewDB()
	for _, bad := range []string{
		"only_measurement",
		"m bad_fields 12",
		"m f=notanumber 12",
		"m f=1 notatime",
		",tag=1 f=1 12",
		"m,badtag f=1 12",
	} {
		if err := db.IngestLine(bad); err == nil {
			t.Fatalf("malformed line accepted: %q", bad)
		}
	}
}

func TestSeriesListing(t *testing.T) {
	db := NewDB()
	db.Insert("b", nil, Point{})
	db.Insert("a", map[string]string{"x": "1"}, Point{})
	got := db.Series()
	if len(got) != 2 || got[0] != "a,x=1" || got[1] != "b" {
		t.Fatalf("Series = %v", got)
	}
}

func TestHTTPServerEndToEnd(t *testing.T) {
	db := NewDB()
	lines := strings.Join([]string{
		FormatLine("acu", nil, map[string]float64{"power_kw": 1.5}, 60),
		FormatLine("acu", nil, map[string]float64{"power_kw": 1.7}, 120),
	}, "\n")
	if _, rejected, err := db.IngestBatch(lines); rejected > 0 {
		t.Fatal(err)
	}
	srv := httptest.NewServer(QueryHandler(db))
	defer srv.Close()

	body, err := httpGet(srv.URL + "/query?measurement=acu&tags=field=power_kw&from=0&to=1000")
	if err != nil {
		t.Fatal(err)
	}
	var pts []Point
	if err := json.Unmarshal([]byte(body), &pts); err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[1].Value != 1.7 {
		t.Fatalf("query over HTTP returned %v", pts)
	}
	if body, err := httpGet(srv.URL + "/series"); err != nil || !strings.Contains(body, "acu,field=power_kw") {
		t.Fatalf("/series = %q, %v", body, err)
	}
	// Malformed queries are rejected with a client-visible error.
	for _, bad := range []string{"/query", "/query?measurement=acu&tags=novalue", "/query?measurement=acu&from=x"} {
		if _, err := httpGet(srv.URL + bad); err == nil {
			t.Fatalf("malformed query %s accepted", bad)
		}
	}
}
