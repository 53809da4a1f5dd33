package telemetry

import (
	"math"
	"strings"
	"testing"
)

// FuzzIngestLine round-trips FormatLine output through IngestLine and pokes
// the parser with arbitrary input. Properties:
//
//  1. A record rendered by FormatLine from protocol-safe names (no spaces,
//     commas or '=' — the documented no-escaping limits) always parses, and
//     the stored point matches the formatted value.
//  2. Arbitrary input never panics; it either parses or returns an error.
func FuzzIngestLine(f *testing.F) {
	f.Add("acu", "device", "d0", "power_kw", 1.5, 60.0)
	f.Add("m", "t", "v", "f", -0.0, 0.0)
	f.Add("dc_temp", "sensor", "17", "c", 21.25, 86400.5)
	f.Fuzz(func(t *testing.T, meas, tk, tv, fk string, val, ts float64) {
		if !safeName(meas) || !safeName(tk) || !safeName(tv) || !safeName(fk) {
			// Outside the documented limits: only require no panic.
			db := NewDB()
			_ = db.IngestLine(meas + "," + tk + "=" + tv + " " + fk + "=1 0")
			return
		}
		if math.IsNaN(val) || math.IsInf(val, 0) || math.IsNaN(ts) || math.IsInf(ts, 0) {
			return // %g of these round-trips via ParseFloat but breaks == checks
		}
		line := FormatLine(meas, map[string]string{tk: tv}, map[string]float64{fk: val}, ts)
		db := NewDB()
		if err := db.IngestLine(line); err != nil {
			t.Fatalf("FormatLine output rejected: %q: %v", line, err)
		}
		pts := db.Query(meas, map[string]string{tk: tv, "field": fk}, -math.MaxFloat64, math.MaxFloat64)
		if len(pts) != 1 {
			t.Fatalf("round-trip stored %d points for %q", len(pts), line)
		}
		// %g prints shortest-round-trip floats, so the parse is exact.
		if pts[0].Value != val {
			t.Fatalf("value %v -> %v through %q", val, pts[0].Value, line)
		}
		if pts[0].TimeS != ts {
			t.Fatalf("timestamp %v -> %v through %q", ts, pts[0].TimeS, line)
		}
	})
}

// safeName reports whether s is inside the protocol's documented limits:
// non-empty, no whitespace, commas, '=', '#' lead, and printable.
func safeName(s string) bool {
	if s == "" || strings.HasPrefix(s, "#") {
		return false
	}
	for _, r := range s {
		switch {
		case r == ',' || r == '=' || r == ' ' || r == '\t' || r == '\n' || r == '\r':
			return false
		case r < 0x20 || r == 0x7f:
			return false
		}
	}
	// Fields splits on any Unicode space, not just ASCII.
	return len(strings.Fields(s)) == 1
}

// TestIngestLineMalformedTable pins the rejection behavior for each
// malformed-input class, including the documented no-escaping limits.
func TestIngestLineMalformedTable(t *testing.T) {
	cases := []struct {
		name string
		line string
		ok   bool
	}{
		{"empty", "", true},       // ignored
		{"comment", "# hi", true}, // ignored
		{"whitespace", "   \t ", true},
		{"missing fields", "meas 12", false},
		{"extra token", "meas f=1 12 junk", false},
		{"empty measurement", ",tag=1 f=1 12", false},
		{"tag missing value", "m,badtag f=1 12", false},
		{"tag empty key", "m,=v f=1 12", false},
		{"field missing value", "m f 12", false},
		{"field empty key", "m =1 12", false},
		{"field bad number", "m f=one 12", false},
		{"bad timestamp", "m f=1 later", false},
		{"good multi-field", "m,a=1 x=1,y=2 3", true},
		{"trailing comma field", "m x=1, 3", false},
		{"nan value parses", "m f=NaN 3", true},      // ParseFloat accepts NaN
		{"inf timestamp parses", "m f=1 +Inf", true}, // documented: no range check
		// No-escaping limits: a space inside a would-be tag value splits the
		// record into four tokens and is rejected, not unescaped.
		{"space in tag value", "m,host=node 3 f=1 12", false},
	}
	for _, tc := range cases {
		db := NewDB()
		err := db.IngestLine(tc.line)
		if tc.ok && err != nil {
			t.Errorf("%s: %q rejected: %v", tc.name, tc.line, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: %q accepted", tc.name, tc.line)
		}
	}
}

// FuzzBatchMatchesLine differentially fuzzes the batched wire decoder
// against the reference parser: same accept/reject verdict, same stored
// series, same stored points.
func FuzzBatchMatchesLine(f *testing.F) {
	f.Add("m f=1 2")
	f.Add("m,a=1,b=2 x=1,y=2 3")
	f.Add("m,field=override x=1 3")
	f.Add("m,a=2,a=1 x=1 3")
	f.Add("m,")
	f.Add("m, f=1 2")
	f.Add("m,a=1, f=1 2")
	f.Add(" m\tf=1  2 ")
	f.Fuzz(func(t *testing.T, line string) {
		ref := NewDB()
		refErr := ref.ingestLine(line)
		fast := NewDB()
		fastErr := fast.newBatchDecoder().ingest(line)
		if (refErr == nil) != (fastErr == nil) {
			t.Fatalf("verdicts differ for %q: ref=%v fast=%v", line, refErr, fastErr)
		}
		refSeries, fastSeries := ref.Series(), fast.Series()
		if len(refSeries) != len(fastSeries) {
			t.Fatalf("series differ for %q: ref=%v fast=%v", line, refSeries, fastSeries)
		}
		for i := range refSeries {
			if refSeries[i] != fastSeries[i] {
				t.Fatalf("series differ for %q: ref=%v fast=%v", line, refSeries, fastSeries)
			}
		}
		if ref.Len() != fast.Len() {
			t.Fatalf("point counts differ for %q: ref=%d fast=%d", line, ref.Len(), fast.Len())
		}
	})
}

// TestIngestLineRejectsAtomically checks that a record with a malformed
// trailing field stores nothing — not a half-applied record.
func TestIngestLineRejectsAtomically(t *testing.T) {
	db := NewDB()
	if err := db.IngestLine("m good=1,bad=x 10"); err == nil {
		t.Fatal("malformed trailing field accepted")
	}
	if db.Len() != 0 {
		t.Fatalf("half-applied record: %d points stored", db.Len())
	}
}
