package controlplane

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tesla/internal/ingest"
)

// TestHeartbeatCarriesIngestStats: shards with an ingest pipeline sample its
// ledgers into every heartbeat, and the coordinator's fleet view and /metrics
// expose the exact fleet-wide sums.
func TestHeartbeatCarriesIngestStats(t *testing.T) {
	fcfg := testFleetCfg(2, 11)
	coord, err := NewCoordinator(CoordinatorConfig{
		Fleet:          fcfg,
		SuspectAfter:   40 * time.Millisecond,
		DeadAfter:      90 * time.Millisecond,
		ReconcileEvery: 10 * time.Millisecond,
		RPC:            fastRPC(),
	})
	if err != nil {
		t.Fatal(err)
	}
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()
	coord.Start()
	defer coord.Stop()

	stats := []ingest.Stats{
		{Inputs: 1, Attempts: 100, Ingested: 90, Dropped: 10, SeqGaps: 3},
		{Inputs: 2, Attempts: 50, Ingested: 50, Subscriptions: 1, Resubscribes: 4},
	}
	for i, id := range []string{"a", "b"} {
		st := stats[i]
		sh, err := NewShard(ShardConfig{
			ID:             id,
			Fleet:          fcfg,
			DataDir:        t.TempDir(),
			Coordinator:    coordSrv.URL,
			HeartbeatEvery: 10 * time.Millisecond,
			RPC:            fastRPC(),
		})
		if err != nil {
			t.Fatal(err)
		}
		sh.SetIngestStats(func() ingest.Stats { return st })
		srv := httptest.NewServer(sh.Handler())
		sh.SetAdvertise(srv.URL)
		sh.Start()
		defer func() { sh.Stop(); srv.Close() }()
	}

	deadline := time.Now().Add(5 * time.Second)
	var got *ingest.Stats
	for {
		v := coord.Fleet()
		if v.Ingest != nil && v.Ingest.Inputs == 3 {
			got = v.Ingest
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet view never merged both shards' ingest stats: %+v", v.Ingest)
		}
		time.Sleep(2 * time.Millisecond)
	}
	want := stats[0]
	want.Merge(stats[1])
	if *got != want {
		t.Fatalf("merged ingest stats = %+v, want %+v", *got, want)
	}
	if got.Attempts != got.Ingested+got.Dropped {
		t.Fatalf("merged ledger broken: attempts %d != ingested %d + dropped %d",
			got.Attempts, got.Ingested, got.Dropped)
	}

	_, body := httpGet(t, coordSrv.URL+"/metrics")
	for _, line := range []string{
		"tesla_fleet_ingest_attempts_total 150",
		"tesla_fleet_ingest_ingested_total 140",
		"tesla_fleet_ingest_dropped_total 10",
		"tesla_fleet_ingest_seq_gaps_total 3",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("coordinator /metrics missing %q", line)
		}
	}
}
