package telemetry

import (
	"math"
	"sort"
	"time"
)

// RetentionConfig describes the tiered downsampling policy:
//
//	raw points   — kept RawWindowS seconds, then folded into 1-min aggregates
//	1-min tier   — kept MinuteWindowS seconds, then folded into 1-hour
//	1-hour tier  — kept HourWindowS seconds, then dropped (0 = forever)
//
// Every fold is exact and accounted: a raw point is either live in its
// chunks or was folded into exactly one minute bucket (CompactedRaw); a
// minute bucket is either live or was folded into exactly one hour bucket.
// Aggregates carry min/max/sum/count, summed in time order, so recomputing a
// tier from the raw points it consumed reproduces it bit-identically.
type RetentionConfig struct {
	// RawWindowS is how long raw points stay queryable at full resolution
	// (default 1 hour). Compaction folds raw points older than this, aligned
	// down to a minute-bucket boundary so buckets are never split.
	RawWindowS float64
	// MinuteWindowS is how long 1-min aggregates stay before folding into
	// the hour tier (default 24 hours).
	MinuteWindowS float64
	// HourWindowS is how long 1-hour aggregates stay before being dropped.
	// 0 keeps them forever.
	HourWindowS float64
	// MinuteS and HourS are the bucket widths — configurable so tests can
	// compress time (defaults 60 and 3600; HourS must be a multiple of
	// MinuteS for buckets to nest).
	MinuteS float64
	HourS   float64
}

func (rc RetentionConfig) withDefaults() RetentionConfig {
	if rc.RawWindowS <= 0 {
		rc.RawWindowS = 3600
	}
	if rc.MinuteWindowS <= 0 {
		rc.MinuteWindowS = 24 * 3600
	}
	if rc.MinuteS <= 0 {
		rc.MinuteS = 60
	}
	if rc.HourS <= 0 {
		rc.HourS = 3600
	}
	return rc
}

// Tier selects a resolution for aggregate queries.
type Tier int

const (
	TierMinute Tier = iota + 1
	TierHour
)

// AggPoint is one downsampled bucket: min/max/sum/count over the points the
// bucket consumed, summed in time order. TimeS is the bucket's start.
type AggPoint struct {
	TimeS float64 `json:"time_s"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Sum   float64 `json:"sum"`
	Count uint64  `json:"count"`
}

// Mean is Sum/Count.
func (a AggPoint) Mean() float64 { return a.Sum / float64(a.Count) }

// addRaw folds one raw point into the bucket.
func (a *AggPoint) addRaw(p Point) {
	if a.Count == 0 {
		a.Min, a.Max = p.Value, p.Value
	} else {
		if p.Value < a.Min {
			a.Min = p.Value
		}
		if p.Value > a.Max {
			a.Max = p.Value
		}
	}
	a.Sum += p.Value
	a.Count++
}

// merge folds a finer-tier bucket into this one.
func (a *AggPoint) merge(o AggPoint) {
	if a.Count == 0 {
		a.Min, a.Max = o.Min, o.Max
	} else {
		if o.Min < a.Min {
			a.Min = o.Min
		}
		if o.Max > a.Max {
			a.Max = o.Max
		}
	}
	a.Sum += o.Sum
	a.Count += o.Count
}

// aggSeries is one tier of one series: bucket-start-sorted aggregates.
// Compaction appends strictly increasing buckets, so no sorting is ever
// needed.
type aggSeries struct {
	pts       []AggPoint
	created   uint64 // buckets ever created in this tier
	compacted uint64 // buckets folded out of this tier into the next
	dropped   uint64 // buckets aged out (terminal tier only)
}

// CompactStats is one compaction pass's (or the cumulative) exact ledger.
type CompactStats struct {
	RawCompacted    uint64 `json:"raw_compacted"`    // raw points folded into minute buckets
	MinuteCompacted uint64 `json:"minute_compacted"` // minute buckets folded into hour buckets
	HourDropped     uint64 `json:"hour_dropped"`     // hour buckets aged out
	LateDropped     uint64 `json:"late_dropped"`     // raw inserts rejected below the watermark
}

// TSDBStats is the store's observability snapshot.
type TSDBStats struct {
	Series       int    `json:"series"`
	RawPoints    int    `json:"raw_points"`
	MinutePoints int    `json:"minute_points"`
	HourPoints   int    `json:"hour_points"`
	Inserted     uint64 `json:"inserted"` // raw points ever accepted
	CompactStats
	Rejected    uint64 `json:"rejected_lines"` // malformed line-protocol records
	Compactions uint64 `json:"compactions"`    // Compact passes run
}

// bucketStart aligns t down to a bucket boundary of width w.
func bucketStart(t, w float64) float64 { return math.Floor(t/w) * w }

// Compact runs one downsampling pass against the clock nowS. Raw points
// older than the raw window fold into minute buckets, minute buckets older
// than their window fold into hour buckets, hour buckets past theirs drop.
// It processes one series at a time under that series' lock, so memory and
// pause are bounded by a single series' eligible backlog, and ingest on
// other series never stalls. No-op (all zeros) on a DB without retention.
func (db *DB) Compact(nowS float64) CompactStats {
	if !db.hasRet {
		return CompactStats{}
	}
	rc := db.ret
	rawCut := bucketStart(nowS-rc.RawWindowS, rc.MinuteS)
	minCut := bucketStart(nowS-rc.MinuteWindowS, rc.HourS)
	var hourCut float64
	hasHourCut := rc.HourWindowS > 0
	if hasHourCut {
		hourCut = bucketStart(nowS-rc.HourWindowS, rc.HourS)
	}

	db.mu.RLock()
	series := make([]*memSeries, 0, len(db.series))
	for _, s := range db.series {
		series = append(series, s)
	}
	db.mu.RUnlock()

	var st CompactStats
	for _, s := range series {
		s.mu.Lock()
		st.RawCompacted += s.compactRaw(rawCut, rc.MinuteS)
		st.MinuteCompacted += s.compactMinute(minCut, rc.HourS)
		if hasHourCut {
			st.HourDropped += s.dropHour(hourCut)
		}
		s.mu.Unlock()
	}
	db.mu.Lock()
	db.compactions++
	db.mu.Unlock()
	return st
}

// compactRaw folds raw points strictly below cut into minute buckets and
// advances the series watermark. Caller holds s.mu.
func (s *memSeries) compactRaw(cut, minuteS float64) uint64 {
	if s.hasWatermark && cut <= s.watermarkS {
		return 0
	}
	var folded uint64
	for len(s.chunks) > 0 {
		c := s.chunks[0]
		if c.minT() >= cut {
			break
		}
		// Fold the prefix of this chunk below the cut.
		hi := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].TimeS >= cut })
		for _, p := range c.pts[:hi] {
			b := bucketStart(p.TimeS, minuteS)
			n := len(s.minute.pts)
			if n == 0 || s.minute.pts[n-1].TimeS != b {
				s.minute.pts = append(s.minute.pts, AggPoint{TimeS: b})
				s.minute.created++
				n++
			}
			s.minute.pts[n-1].addRaw(p)
		}
		folded += uint64(hi)
		if hi == len(c.pts) {
			s.chunks = s.chunks[1:]
		} else {
			c.pts = c.pts[hi:]
			break
		}
	}
	if cut > s.watermarkS || !s.hasWatermark {
		s.watermarkS = cut
		s.hasWatermark = true
	}
	s.compactedRaw += folded
	return folded
}

// compactMinute folds minute buckets strictly below cut into hour buckets.
// Caller holds s.mu.
func (s *memSeries) compactMinute(cut, hourS float64) uint64 {
	hi := sort.Search(len(s.minute.pts), func(i int) bool { return s.minute.pts[i].TimeS >= cut })
	if hi == 0 {
		return 0
	}
	for _, m := range s.minute.pts[:hi] {
		b := bucketStart(m.TimeS, hourS)
		n := len(s.hour.pts)
		if n == 0 || s.hour.pts[n-1].TimeS != b {
			s.hour.pts = append(s.hour.pts, AggPoint{TimeS: b})
			s.hour.created++
			n++
		}
		s.hour.pts[n-1].merge(m)
	}
	s.minute.pts = append(s.minute.pts[:0], s.minute.pts[hi:]...)
	s.minute.compacted += uint64(hi)
	return uint64(hi)
}

// dropHour ages out hour buckets strictly below cut. Caller holds s.mu.
func (s *memSeries) dropHour(cut float64) uint64 {
	hi := sort.Search(len(s.hour.pts), func(i int) bool { return s.hour.pts[i].TimeS >= cut })
	if hi == 0 {
		return 0
	}
	s.hour.pts = append(s.hour.pts[:0], s.hour.pts[hi:]...)
	s.hour.dropped += uint64(hi)
	return uint64(hi)
}

// QueryAgg returns one tier's buckets whose starts fall within [fromS, toS].
// The tiers hold only compacted history; points still in the raw window are
// answered by Query.
func (db *DB) QueryAgg(tier Tier, measurement string, tags map[string]string, fromS, toS float64) []AggPoint {
	key := seriesKey{measurement, canonTags(tags)}
	db.mu.RLock()
	s := db.series[key]
	db.mu.RUnlock()
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var pts []AggPoint
	switch tier {
	case TierMinute:
		pts = s.minute.pts
	case TierHour:
		pts = s.hour.pts
	default:
		return nil
	}
	lo := sort.Search(len(pts), func(i int) bool { return pts[i].TimeS >= fromS })
	hi := sort.Search(len(pts), func(i int) bool { return pts[i].TimeS > toS })
	if hi <= lo {
		return nil
	}
	return append([]AggPoint(nil), pts[lo:hi]...)
}

// TSDBStats snapshots the store-wide ledger. The core invariant — every raw
// point ever accepted is live, compacted into exactly one minute bucket, or
// was rejected below the watermark — reads as:
//
//	Inserted == RawPoints + RawCompacted
func (db *DB) TSDBStats() TSDBStats {
	db.mu.RLock()
	series := make([]*memSeries, 0, len(db.series))
	for _, s := range db.series {
		series = append(series, s)
	}
	st := TSDBStats{Series: len(series), Rejected: db.rejected, Compactions: db.compactions}
	db.mu.RUnlock()
	for _, s := range series {
		s.mu.Lock()
		for _, c := range s.chunks {
			st.RawPoints += len(c.pts)
		}
		st.MinutePoints += len(s.minute.pts)
		st.HourPoints += len(s.hour.pts)
		st.Inserted += s.inserted
		st.RawCompacted += s.compactedRaw
		st.MinuteCompacted += s.minute.compacted
		st.HourDropped += s.hour.dropped
		st.LateDropped += s.lateDropped
		s.mu.Unlock()
	}
	return st
}

// RunCompactor drives Compact on the given interval until stop closes,
// stamping each pass with now() (seconds). A final pass runs on stop so a
// draining pipeline leaves the tiers caught up.
func (db *DB) RunCompactor(stop <-chan struct{}, interval time.Duration, now func() float64) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			db.Compact(now())
			return
		case <-t.C:
			db.Compact(now())
		}
	}
}
