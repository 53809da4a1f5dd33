package telemetry

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
)

// QueryHandler serves a DB's read API — the InfluxDB query side of the
// paper's deployment (writes arrive through internal/ingest's inputs):
//
//	GET /query?measurement=m[&tags=k=v,k=v][&from=s][&to=s][&tier=raw|1m|1h]
//	                      — JSON points (raw) or aggregates (1m, 1h)
//	GET /series          — list stored series
func QueryHandler(db *DB) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) { handleQuery(db, w, r) })
	mux.HandleFunc("/series", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, db.Series()) })
	return mux
}

func handleQuery(db *DB, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	measurement := q.Get("measurement")
	if measurement == "" {
		http.Error(w, "measurement required", http.StatusBadRequest)
		return
	}
	tags := map[string]string{}
	if tagStr := q.Get("tags"); tagStr != "" {
		for _, kv := range strings.Split(tagStr, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok || k == "" {
				http.Error(w, "malformed tags", http.StatusBadRequest)
				return
			}
			tags[k] = v
		}
	}
	from, to := 0.0, 1e18
	for _, b := range []struct {
		name string
		dst  *float64
	}{{"from", &from}, {"to", &to}} {
		if s := q.Get(b.name); s != "" {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				http.Error(w, "bad "+b.name, http.StatusBadRequest)
				return
			}
			*b.dst = v
		}
	}
	// tier selects a downsampled resolution; absent or "raw" serves points.
	switch q.Get("tier") {
	case "", "raw":
		writeJSON(w, db.Query(measurement, tags, from, to))
	case "1m":
		writeJSON(w, db.QueryAgg(TierMinute, measurement, tags, from, to))
	case "1h":
		writeJSON(w, db.QueryAgg(TierHour, measurement, tags, from, to))
	default:
		http.Error(w, "bad tier (want raw, 1m or 1h)", http.StatusBadRequest)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
