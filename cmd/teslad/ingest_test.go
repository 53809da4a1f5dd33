package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tesla/internal/gateway"
	"tesla/internal/ingest"
	"tesla/internal/telemetry"
)

// TestStartIngestSpecValidation: the -inputs spec fails fast on bad input
// names and empty pipelines, and modbus is only available with a gateway.
func TestStartIngestSpecValidation(t *testing.T) {
	db := telemetry.NewDBWithRetention(telemetry.RetentionConfig{})
	if _, err := startIngest(db, "", nil, 0, 0, nil, ingestOptions{}); err == nil {
		t.Fatal("empty spec built a pipeline")
	}
	if _, err := startIngest(db, "bogus", nil, 0, 0, nil, ingestOptions{}); err == nil {
		t.Fatal("unknown input name accepted")
	}
	if _, err := startIngest(db, "modbus", nil, 0, 0, nil, ingestOptions{}); err == nil {
		t.Fatal("modbus input built without a gateway")
	}
	svc, err := startIngest(db, "http=127.0.0.1:0", nil, 0, 0, nil, ingestOptions{})
	if err != nil {
		t.Fatalf("http spec: %v", err)
	}
	svc.Stop()
}

// TestStartIngestShardGatewayMode: a modbus input over a gateway that has no
// devices yet must start — it tracks the device set live, since rooms and
// their ACU sims are placed long after the pipeline boots — and the cadence
// flags reach the service.
func TestStartIngestShardGatewayMode(t *testing.T) {
	db := telemetry.NewDBWithRetention(telemetry.RetentionConfig{})
	gw := gateway.New(gateway.Config{Timeout: time.Second})
	defer gw.Close()

	svc, err := startIngest(db, "modbus", gw, 22, 60, nil, ingestOptions{gatherEvery: time.Hour, compactEvery: time.Hour})
	if err != nil {
		t.Fatalf("dynamic modbus input over an empty gateway: %v", err)
	}
	defer svc.Stop()
	if n := len(svc.InputStats()); n != 1 {
		t.Fatalf("inputs = %d, want 1", n)
	}
}

// TestDaemonSurfacesIngestPipeline: with an ingest service attached, writes
// through an input show up in /status's ingest block and the tesla_ingest_* /
// tesla_tsdb_* metric series — including the dropped count for a bad line.
func TestDaemonSurfacesIngestPipeline(t *testing.T) {
	db := telemetry.NewDBWithRetention(telemetry.RetentionConfig{})
	in := ingest.NewHTTPInput("127.0.0.1:0")
	svc := ingest.NewService(ingest.Config{DB: db, GatherEvery: time.Hour})
	if err := svc.Add(in); err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()

	body := "acu,device=acu-1 power_kw=30.5 10\nnot a line\nacu,device=acu-1 power_kw=31.5 11\n"
	resp, err := http.Post("http://"+in.Addr()+"/write", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed batch status = %d, want 400", resp.StatusCode)
	}

	o := newOperator([]string{"room-0"})
	o.pipe = svc
	rec := httptest.NewRecorder()
	o.handleStatus(rec, httptest.NewRequest("GET", "/status", nil))
	var out struct {
		Ingest *ingest.Stats `json:"ingest"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad /status body: %v", err)
	}
	if out.Ingest == nil {
		t.Fatal("/status missing ingest block")
	}
	if out.Ingest.Attempts != 3 || out.Ingest.Ingested != 2 || out.Ingest.Dropped != 1 {
		t.Fatalf("ingest ledger = %d/%d/%d, want 3/2/1",
			out.Ingest.Attempts, out.Ingest.Ingested, out.Ingest.Dropped)
	}

	rec = httptest.NewRecorder()
	o.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	mbody := rec.Body.String()
	for _, line := range []string{
		"tesla_ingest_attempts_total 3",
		"tesla_ingest_ingested_total 2",
		"tesla_ingest_dropped_total 1",
		"tesla_tsdb_inserted_total 2",
		"tesla_tsdb_series 1",
	} {
		if !strings.Contains(mbody, line) {
			t.Errorf("/metrics missing %q", line)
		}
	}
}
