package fleet

import (
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tesla/internal/store"
)

// TestRoomResultJSONKeys pins the key set of a marshalled RoomResult. The
// controlplane RPC serves it and teslabench writes it into
// BENCH_scheduler.json, so a key may be added only deliberately.
func TestRoomResultJSONKeys(t *testing.T) {
	rr := RoomResult{Recovery: RecoveryInfo{
		Recovered: true, SnapshotStep: 1, WarmupRecords: 1, StepRecords: 1, ReplayedSteps: 1,
		DecisionMismatches: 1, PlantMismatches: 1, WALCorruptions: 1, WALTruncatedBytes: 1,
		WALDroppedSegments: 1, InvalidSnapshots: 1,
	}}
	blob, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(blob, &top); err != nil {
		t.Fatal(err)
	}
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(top["recovery"], &rec); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	for k := range rec {
		keys = append(keys, "recovery."+k)
	}
	sort.Strings(keys)
	const want = "ce_kwh ci_frac degraded escalations latency_p50_ns latency_p99_ns max_cold_c mean_sp_c name " +
		"overrides planned_steps quarantines queue_dropped recovery " +
		"recovery.decision_mismatches recovery.invalid_snapshots recovery.plant_mismatches recovery.recovered " +
		"recovery.replayed_steps recovery.snapshot_step recovery.step_records recovery.wal_corruptions " +
		"recovery.wal_dropped_segments recovery.wal_truncated_bytes recovery.warmup_records " +
		"room safety_max_level steps stream trajectory_hash true_tsv_frac tsv_frac"
	if got := strings.Join(keys, " "); got != want {
		t.Fatalf("RoomResult JSON keys\n got  %s\n want %s", got, want)
	}
}

// gob numbers a type the first time a process encodes it, and the
// number is written into the stream. Encoding harnessState while the test
// binary initialises gives it the same number whatever test runs first, so
// pinnedHarness compares the same bytes in every run.
var _ = gob.NewEncoder(io.Discard).Encode(harnessState{})

// pinnedHarness is the gob encoding of room 0's accumulators after 20
// durable-EMA steps of durableShortConfig(1, 7), as a drain checkpoints
// them. A format drift would not fail recovery — an undecodable harness
// blob falls back to full WAL replay with the same trajectory hash — so
// only this pin notices it.
const pinnedHarness = "747f0301010c6861726e657373537461746501ff80000109010756657273696f" +
	"6e01040001055374657073010400010448617368010600010543456b57680108" +
	"0001035453560108000107547275655453560108000102434901080001064d65" +
	"616e537001080001074d6178436f6c6401080000002fff800102012801f8f526" +
	"82c792fb86b901f85d904e108382e63f04f8f9012f0be8d97c4001f8be9d179f" +
	"e76b344000"

// TestHarnessGobBytes pins the checkpointed harness bytes a real drain
// writes and restores those bytes through decodeHarness.
func TestHarnessGobBytes(t *testing.T) {
	cfg := durableShortConfig(1, 7)
	cfg.DataDir = t.TempDir()
	r, err := NewRunner(cfg, 0, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Metrics()
	if _, err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	s, rec, err := store.Open(filepath.Join(cfg.DataDir, cfg.RoomName(0)), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !rec.HaveCheckpoint || rec.Checkpoint.Step != 20 {
		t.Fatalf("drain left no checkpoint at step 20: %+v", rec.Checkpoint)
	}
	if got := hex.EncodeToString(rec.Checkpoint.Harness); got != pinnedHarness {
		t.Fatalf("harness gob bytes\n got  %s\n want %s", got, pinnedHarness)
	}

	want, _ := hex.DecodeString(pinnedHarness)
	h, err := decodeHarness(want)
	if err != nil {
		t.Fatal(err)
	}
	drained := harnessState{Version: harnessVersion, Steps: st.Steps, Hash: h.Hash, CEkWh: st.CEkWh, TSV: st.TSVFrac,
		TrueTSV: st.TrueTSVFrac, CI: st.CIFrac, MeanSp: st.MeanSp, MaxCold: st.MaxCold}
	if h != drained || h.Steps != 20 || h.Hash == 0 {
		t.Fatalf("decoded harness %+v does not match the drained room %+v", h, st)
	}
}
