package telemetry

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tesla/internal/rng"
)

// TestChunkedEngineMatchesSortedSemantics drives the chunked store with a
// mixed in-order/out-of-order stream and checks Query against a reference
// sort over every window.
func TestChunkedEngineMatchesSortedSemantics(t *testing.T) {
	db := NewDB()
	rnd := rng.New(7)
	var ref []Point
	for i := 0; i < 5000; i++ {
		ts := float64(i)
		if rnd.Float64() < 0.2 {
			ts = rnd.Float64() * 5000 // out-of-order, possibly duplicate times
		}
		p := Point{TimeS: ts, Value: float64(i)}
		db.Insert("m", nil, p)
		ref = append(ref, p)
	}
	for _, win := range [][2]float64{{0, 5000}, {100, 200}, {4999, 5000}, {250.5, 250.6}, {6000, 7000}} {
		got := db.Query("m", nil, win[0], win[1])
		want := 0
		for _, p := range ref {
			if p.TimeS >= win[0] && p.TimeS <= win[1] {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("window %v: %d points, want %d", win, len(got), want)
		}
		for i := 1; i < len(got); i++ {
			if got[i].TimeS < got[i-1].TimeS {
				t.Fatalf("window %v: unsorted at %d", win, i)
			}
		}
	}
	if db.Len() != 5000 {
		t.Fatalf("Len = %d", db.Len())
	}
	st := db.TSDBStats()
	if st.Inserted != 5000 || st.RawPoints != 5000 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestIngestLinesKeepsGoing pins the batch semantics the old store got
// wrong: a malformed line must not abort the batch. Before the fix the first
// bad line stopped ingestion, the two valid lines after it were lost, and
// the error carried no line numbers.
func TestIngestLinesKeepsGoing(t *testing.T) {
	db := NewDB()
	batch := strings.Join([]string{
		"m f=1 10",
		"m f=notanumber 20", // line 2: bad value
		"m f=3 30",
		"",
		"garbage", // line 5: not a record
		"m f=6 60",
	}, "\n")
	err := db.IngestLines(batch)
	if err == nil {
		t.Fatalf("batch with malformed lines must return an error")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error is %T, want *BatchError", err)
	}
	if len(be.Errors) != 2 || be.Errors[0].Line != 2 || be.Errors[1].Line != 5 {
		t.Fatalf("line numbers = %+v, want lines 2 and 5", be.Errors)
	}
	if be.Errors[0].Err == nil || be.Errors[1].Err == nil {
		t.Fatalf("per-line causes missing: %+v", be.Errors)
	}
	// The lines after the failures were still ingested.
	pts := db.Query("m", map[string]string{"field": "f"}, 0, 100)
	if len(pts) != 3 {
		t.Fatalf("ingested %d valid lines, want 3 (batch must not abort)", len(pts))
	}
	if db.Rejected() != 2 {
		t.Fatalf("Rejected = %d, want 2", db.Rejected())
	}
	// IngestBatch exposes the counts directly.
	n, rej, err := db.IngestBatch("m f=9 90\nbroken\n# comment\n")
	if n != 1 || rej != 1 || err == nil {
		t.Fatalf("IngestBatch = (%d, %d, %v)", n, rej, err)
	}
}

// recomputeTiers rebuilds the minute and hour aggregates from a retained raw
// copy exactly the way compaction does: bucket in time order, hour sums as
// sums of minute sums. Used to prove bit-identity.
func recomputeTiers(raw []Point, minuteS, hourS float64) (minute, hour []AggPoint) {
	for _, p := range raw {
		b := bucketStart(p.TimeS, minuteS)
		n := len(minute)
		if n == 0 || minute[n-1].TimeS != b {
			minute = append(minute, AggPoint{TimeS: b})
			n++
		}
		minute[n-1].addRaw(p)
	}
	for _, m := range minute {
		b := bucketStart(m.TimeS, hourS)
		n := len(hour)
		if n == 0 || hour[n-1].TimeS != b {
			hour = append(hour, AggPoint{TimeS: b})
			n++
		}
		hour[n-1].merge(m)
	}
	return minute, hour
}

// TestDownsampleBitIdentical ingests a noisy stream, compacts in several
// passes, and requires the tier query results to be bit-identical to
// recomputing the aggregates from the retained raw copy.
func TestDownsampleBitIdentical(t *testing.T) {
	rc := RetentionConfig{RawWindowS: 100, MinuteWindowS: 300, MinuteS: 10, HourS: 60}
	db := NewDBWithRetention(rc)
	rnd := rng.New(23)
	var raw []Point
	tags := map[string]string{"sensor": "7"}
	now := 0.0
	for step := 0; step < 2000; step++ {
		now = float64(step)
		p := Point{TimeS: now, Value: 20 + 5*rnd.Float64()}
		db.Insert("dc_temp", tags, p)
		raw = append(raw, p)
		if step%250 == 249 {
			db.Compact(now)
		}
	}
	db.Compact(now)

	// Everything below the final watermark must be in the tiers.
	rawCut := bucketStart(now-rc.RawWindowS, rc.MinuteS)
	minCut := bucketStart(now-rc.MinuteWindowS, rc.HourS)
	var eligible []Point
	for _, p := range raw {
		if p.TimeS < rawCut {
			eligible = append(eligible, p)
		}
	}
	wantMinute, wantHour := recomputeTiers(eligible, rc.MinuteS, rc.HourS)
	// Split the recomputed minute tier the way compaction did: buckets below
	// the minute cut folded onward into hours.
	var wantLiveMinute []AggPoint
	for _, m := range wantMinute {
		if m.TimeS >= minCut {
			wantLiveMinute = append(wantLiveMinute, m)
		}
	}
	var wantLiveHour []AggPoint
	for _, h := range wantHour {
		if h.TimeS < minCut {
			wantLiveHour = append(wantLiveHour, h)
		}
	}

	gotMinute := db.QueryAgg(TierMinute, "dc_temp", tags, -1e18, 1e18)
	gotHour := db.QueryAgg(TierHour, "dc_temp", tags, -1e18, 1e18)
	assertAggEqual(t, "minute", gotMinute, wantLiveMinute)
	assertAggEqual(t, "hour", gotHour, wantLiveHour)

	// Exact ledger: every point accepted is live raw or compacted raw.
	st := db.TSDBStats()
	if st.Inserted != uint64(st.RawPoints)+st.RawCompacted {
		t.Fatalf("accounting broken: inserted %d != raw %d + compacted %d",
			st.Inserted, st.RawPoints, st.RawCompacted)
	}
	if st.Inserted != 2000 {
		t.Fatalf("inserted = %d", st.Inserted)
	}
}

func assertAggEqual(t *testing.T, tier string, got, want []AggPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s tier: %d buckets, want %d", tier, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		// Bit-identical: == on float64, not a tolerance.
		if g.TimeS != w.TimeS || g.Min != w.Min || g.Max != w.Max || g.Sum != w.Sum || g.Count != w.Count {
			t.Fatalf("%s bucket %d: got %+v want %+v", tier, i, g, w)
		}
	}
}

// TestLateInsertsRejectedExactly pins the out-of-order window policy: a
// point below the compaction watermark is dropped and counted, never folded
// into a closed bucket.
func TestLateInsertsRejectedExactly(t *testing.T) {
	db := NewDBWithRetention(RetentionConfig{RawWindowS: 10, MinuteS: 10, HourS: 60})
	for i := 0; i < 100; i++ {
		db.Insert("m", nil, Point{TimeS: float64(i), Value: 1})
	}
	db.Compact(100) // watermark = 90
	before := db.TSDBStats()
	db.Insert("m", nil, Point{TimeS: 50, Value: 99}) // below watermark
	db.Insert("m", nil, Point{TimeS: 95, Value: 2})  // inside raw window
	st := db.TSDBStats()
	if st.LateDropped != before.LateDropped+1 {
		t.Fatalf("LateDropped = %d, want %d", st.LateDropped, before.LateDropped+1)
	}
	if st.Inserted != before.Inserted+1 {
		t.Fatalf("Inserted = %d, want %d", st.Inserted, before.Inserted+1)
	}
	// The closed minute buckets are untouched by the late write.
	for _, b := range db.QueryAgg(TierMinute, "m", nil, 50, 59) {
		if b.Max != 1 || b.Count != 10 {
			t.Fatalf("late write leaked into closed bucket: %+v", b)
		}
	}
}

// TestHourTierAgesOut checks the terminal drop with exact accounting.
func TestHourTierAgesOut(t *testing.T) {
	db := NewDBWithRetention(RetentionConfig{RawWindowS: 10, MinuteWindowS: 20, HourWindowS: 120, MinuteS: 10, HourS: 60})
	for i := 0; i < 1000; i++ {
		db.Insert("m", nil, Point{TimeS: float64(i), Value: float64(i)})
		if i%100 == 99 {
			db.Compact(float64(i))
		}
	}
	db.Compact(1000)
	st := db.TSDBStats()
	if st.HourDropped == 0 {
		t.Fatalf("no hour buckets aged out: %+v", st)
	}
	// Ledger still exact through the drop.
	if st.Inserted != uint64(st.RawPoints)+st.RawCompacted {
		t.Fatalf("accounting broken after drop: %+v", st)
	}
}

// TestLatestConstantTime sanity-checks the cached Latest against ties (a
// later insert at an equal timestamp wins, matching the old linear scan).
func TestLatestConstantTime(t *testing.T) {
	db := NewDB()
	db.Insert("m", nil, Point{TimeS: 5, Value: 1})
	db.Insert("m", nil, Point{TimeS: 5, Value: 2})
	db.Insert("m", nil, Point{TimeS: 3, Value: 9})
	p, ok := db.Latest("m", nil)
	if !ok || p.Value != 2 {
		t.Fatalf("Latest = %+v, want the later tie (value 2)", p)
	}
}

// TestQueryAggOverHTTP exercises the tier parameter end to end.
func TestQueryAggOverHTTP(t *testing.T) {
	db := NewDBWithRetention(RetentionConfig{RawWindowS: 10, MinuteS: 10, HourS: 60})
	for i := 0; i < 100; i++ {
		db.Insert("m", nil, Point{TimeS: float64(i), Value: float64(i)})
	}
	db.Compact(100)
	srv := httptest.NewServer(QueryHandler(db))
	defer srv.Close()
	resp, err := httpGet(srv.URL + "/query?measurement=m&tier=1m&from=0&to=100")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp, `"count":10`) {
		t.Fatalf("tier query response missing buckets: %s", resp)
	}
	if _, err := httpGet(srv.URL + "/query?measurement=m&tier=bogus"); err == nil {
		t.Fatalf("bogus tier accepted")
	}
}

func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return string(body), nil
}
