package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Anomaly detection for sensor telemetry: the §4 deployment depends on 37
// temperature probes, and the dominant field failures are stuck readings
// (a probe freezes at one value), stale series (a probe stops reporting)
// and spikes (electrical noise). Detector flags all three from the stored
// series so operators — or a supervisor around the controller — can mask
// bad inputs before they bias the thermal-safety constraint.

// AnomalyKind classifies a finding.
type AnomalyKind string

// The detected anomaly classes.
const (
	AnomalyStuck AnomalyKind = "stuck" // variance collapsed to ~0
	AnomalyStale AnomalyKind = "stale" // no samples within the window
	AnomalySpike AnomalyKind = "spike" // |x − median| beyond the threshold
)

// Anomaly is one finding on one series.
type Anomaly struct {
	Series string
	Kind   AnomalyKind
	// TimeS is the timestamp of the offending sample (spikes) or the last
	// seen sample (stale); for stuck series it is the window end.
	TimeS float64
	// Value is the offending reading (spike/stuck); 0 for stale.
	Value float64
	// Detail is a human-readable explanation.
	Detail string
}

// DetectorConfig tunes the checks.
type DetectorConfig struct {
	// WindowS is how far back to look.
	WindowS float64
	// StuckStd flags a series whose standard deviation over the window
	// falls below this while carrying at least MinSamples points. Healthy
	// temperature probes always show measurement noise.
	StuckStd float64
	// StaleAfterS flags a series whose newest sample is older than this.
	StaleAfterS float64
	// SpikeMAD flags samples more than SpikeMAD median-absolute-deviations
	// from the window median (a robust z-score).
	SpikeMAD float64
	// MinSamples gates the stuck/spike checks.
	MinSamples int
}

// DefaultDetectorConfig suits 1-minute telemetry.
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{
		WindowS:     1800,
		StuckStd:    0.005,
		StaleAfterS: 300,
		SpikeMAD:    8,
		MinSamples:  10,
	}
}

// Detector scans a DB for anomalies.
type Detector struct {
	DB  *DB
	Cfg DetectorConfig
}

// NewDetector wraps a DB with the default configuration.
func NewDetector(db *DB) *Detector {
	return &Detector{DB: db, Cfg: DefaultDetectorConfig()}
}

// ScanSeries checks one series as of time nowS.
func (d *Detector) ScanSeries(measurement string, tags map[string]string, nowS float64) []Anomaly {
	key := measurement
	if t := canonTags(tags); t != "" {
		key += "," + t
	}
	pts := d.DB.Query(measurement, tags, nowS-d.Cfg.WindowS, nowS)
	var out []Anomaly

	if len(pts) == 0 {
		out = append(out, Anomaly{
			Series: key, Kind: AnomalyStale, TimeS: nowS,
			Detail: fmt.Sprintf("no samples within the last %.0f s", d.Cfg.WindowS),
		})
		return out
	}
	newest := pts[len(pts)-1]
	if nowS-newest.TimeS > d.Cfg.StaleAfterS {
		out = append(out, Anomaly{
			Series: key, Kind: AnomalyStale, TimeS: newest.TimeS, Value: newest.Value,
			Detail: fmt.Sprintf("last sample %.0f s old", nowS-newest.TimeS),
		})
	}
	if len(pts) < d.Cfg.MinSamples {
		return out
	}

	// Stuck: collapsed variance.
	var sum, sum2 float64
	for _, p := range pts {
		sum += p.Value
		sum2 += p.Value * p.Value
	}
	n := float64(len(pts))
	mean := sum / n
	std := math.Sqrt(math.Max(0, sum2/n-mean*mean))
	if std < d.Cfg.StuckStd {
		out = append(out, Anomaly{
			Series: key, Kind: AnomalyStuck, TimeS: newest.TimeS, Value: mean,
			Detail: fmt.Sprintf("std %.4f over %d samples", std, len(pts)),
		})
	}

	// Spikes: robust z-score against the window median.
	med, mad := medianMAD(pts)
	if mad > 1e-9 {
		for _, p := range pts {
			if math.Abs(p.Value-med)/mad > d.Cfg.SpikeMAD {
				out = append(out, Anomaly{
					Series: key, Kind: AnomalySpike, TimeS: p.TimeS, Value: p.Value,
					Detail: fmt.Sprintf("%.2f vs window median %.2f (MAD %.3f)", p.Value, med, mad),
				})
			}
		}
	}
	return out
}

// ScanAll checks every stored series as of nowS, sorted by series name.
func (d *Detector) ScanAll(nowS float64) []Anomaly {
	var out []Anomaly
	for _, s := range d.DB.Series() {
		measurement, tags := parseSeriesKey(s)
		out = append(out, d.ScanSeries(measurement, tags, nowS)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Series != out[j].Series {
			return out[i].Series < out[j].Series
		}
		return out[i].TimeS < out[j].TimeS
	})
	return out
}

// parseSeriesKey splits a Series() entry back into measurement and tags.
func parseSeriesKey(s string) (string, map[string]string) {
	measurement, rest, ok := strings.Cut(s, ",")
	if !ok {
		return s, nil
	}
	tags := map[string]string{}
	for _, kv := range strings.Split(rest, ",") {
		if k, v, ok := strings.Cut(kv, "="); ok && k != "" {
			tags[k] = v
		}
	}
	return measurement, tags
}

// medianMAD returns the median and the median absolute deviation of the
// window values.
func medianMAD(pts []Point) (median, mad float64) {
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = p.Value
	}
	sort.Float64s(vals)
	median = quantileSorted(vals, 0.5)
	devs := make([]float64, len(vals))
	for i, v := range vals {
		devs[i] = math.Abs(v - median)
	}
	sort.Float64s(devs)
	mad = quantileSorted(devs, 0.5)
	return median, mad
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
