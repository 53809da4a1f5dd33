package main

import (
	"fmt"
	"io"
	"time"

	"tesla/internal/gateway"
	"tesla/internal/ingest"
	"tesla/internal/telemetry"
)

// ingestOptions carries the pipeline cadence flags. Zero cadences fall back
// to the defaults (gather every second, compact every five).
type ingestOptions struct {
	gatherEvery  time.Duration
	compactEvery time.Duration
}

// startIngest assembles and starts the telemetry ingest pipeline from a
// -inputs spec list ("http=addr,subscribe=host:port;host:port,modbus").
// The modbus input is only registered when gw is non-nil, and tracks the
// gateway's device set live: room ACUs come and go as rooms are placed and
// migrated long after the pipeline boots. now, when non-nil, is the
// compaction clock — the simulation sample clock, so retention cutoffs live
// in the samples' time domain; nil keeps wall time.
func startIngest(db *telemetry.DB, specs string, gw *gateway.Gateway, coldLimitC, periodS float64, now func() float64, opts ingestOptions) (*ingest.Service, error) {
	if opts.compactEvery <= 0 {
		opts.compactEvery = 5 * time.Second
	}
	reg := ingest.NewRegistry()
	if gw != nil {
		err := reg.Register("modbus", func(arg string) (ingest.Input, error) {
			cfg := ingest.ModbusConfig{
				Gateway: gw,
				Poller:  gateway.PollerConfig{ColdLimitC: coldLimitC, PeriodS: periodS},
			}
			if arg != "" {
				cfg.Measurement = arg
			}
			return ingest.NewModbusInput(cfg), nil
		})
		if err != nil {
			return nil, err
		}
	}
	inputs, err := reg.BuildAll(specs)
	if err != nil {
		return nil, err
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("-inputs %q built no inputs", specs)
	}
	svc := ingest.NewService(ingest.Config{
		DB:           db,
		GatherEvery:  opts.gatherEvery,
		CompactEvery: opts.compactEvery,
		Now:          now,
	})
	for _, in := range inputs {
		if err := svc.Add(in); err != nil {
			return nil, err
		}
	}
	if err := svc.Start(); err != nil {
		return nil, err
	}
	return svc, nil
}

// writeIngestMetrics exposes the ingest pipeline and TSDB ledgers — the
// exactness counters an operator alerts on (drops, gaps, late writes) plus
// the tier sizes that show retention is holding memory down.
func writeIngestMetrics(w io.Writer, st ingest.Stats) {
	fmt.Fprintf(w, "# TYPE tesla_ingest_inputs gauge\ntesla_ingest_inputs %d\n", st.Inputs)
	fmt.Fprintf(w, "# TYPE tesla_ingest_attempts_total counter\ntesla_ingest_attempts_total %d\n", st.Attempts)
	fmt.Fprintf(w, "# TYPE tesla_ingest_ingested_total counter\ntesla_ingest_ingested_total %d\n", st.Ingested)
	fmt.Fprintf(w, "# TYPE tesla_ingest_dropped_total counter\ntesla_ingest_dropped_total %d\n", st.Dropped)
	fmt.Fprintf(w, "# TYPE tesla_ingest_seq_gaps_total counter\ntesla_ingest_seq_gaps_total %d\n", st.SeqGaps)
	fmt.Fprintf(w, "# TYPE tesla_ingest_subscriptions gauge\ntesla_ingest_subscriptions %d\n", st.Subscriptions)
	fmt.Fprintf(w, "# TYPE tesla_ingest_resubscribes_total counter\ntesla_ingest_resubscribes_total %d\n", st.Resubscribes)
	fmt.Fprintf(w, "# TYPE tesla_ingest_gathers_total counter\ntesla_ingest_gathers_total %d\n", st.Gathers)
	fmt.Fprintf(w, "# TYPE tesla_ingest_gather_errors_total counter\ntesla_ingest_gather_errors_total %d\n", st.GatherErrors)
	fmt.Fprintf(w, "# TYPE tesla_tsdb_series gauge\ntesla_tsdb_series %d\n", st.TSDB.Series)
	fmt.Fprintf(w, "# TYPE tesla_tsdb_raw_points gauge\ntesla_tsdb_raw_points %d\n", st.TSDB.RawPoints)
	fmt.Fprintf(w, "# TYPE tesla_tsdb_minute_points gauge\ntesla_tsdb_minute_points %d\n", st.TSDB.MinutePoints)
	fmt.Fprintf(w, "# TYPE tesla_tsdb_hour_points gauge\ntesla_tsdb_hour_points %d\n", st.TSDB.HourPoints)
	fmt.Fprintf(w, "# TYPE tesla_tsdb_inserted_total counter\ntesla_tsdb_inserted_total %d\n", st.TSDB.Inserted)
	fmt.Fprintf(w, "# TYPE tesla_tsdb_raw_compacted_total counter\ntesla_tsdb_raw_compacted_total %d\n", st.TSDB.RawCompacted)
	fmt.Fprintf(w, "# TYPE tesla_tsdb_minute_compacted_total counter\ntesla_tsdb_minute_compacted_total %d\n", st.TSDB.MinuteCompacted)
	fmt.Fprintf(w, "# TYPE tesla_tsdb_hour_dropped_total counter\ntesla_tsdb_hour_dropped_total %d\n", st.TSDB.HourDropped)
	fmt.Fprintf(w, "# TYPE tesla_tsdb_late_dropped_total counter\ntesla_tsdb_late_dropped_total %d\n", st.TSDB.LateDropped)
	fmt.Fprintf(w, "# TYPE tesla_tsdb_rejected_lines_total counter\ntesla_tsdb_rejected_lines_total %d\n", st.TSDB.Rejected)
	fmt.Fprintf(w, "# TYPE tesla_tsdb_compactions_total counter\ntesla_tsdb_compactions_total %d\n", st.TSDB.Compactions)
}
