package controlplane

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"tesla/internal/fleet"
	"tesla/internal/modbus"
)

// fieldFleetCfg is testFleetCfg with the decide path quantized to Modbus
// wire resolution — the reference a field-bus cluster must reproduce bit
// for bit, since every set-point it actuates crosses centidegree registers.
func fieldFleetCfg(n int, seed uint64) fleet.Config {
	cfg := testFleetCfg(n, seed)
	cfg.Quantize = modbus.QuantizeTempC
	return cfg
}

// TestFieldBusFailoverBitIdentical: rooms actuated and polled through real
// per-shard Modbus gateways, one shard killed mid-horizon. The re-placed
// rooms recover from the shared root and every trajectory still matches the
// uninterrupted single-process reference bit for bit; the survivors' field
// ledgers stay gap-free (the dead shard's in-memory ledger dies with it,
// exactly like a crashed gateway's would).
func TestFieldBusFailoverBitIdentical(t *testing.T) {
	fcfg := fieldFleetCfg(4, 61)
	want := referenceHashes(t, fcfg)
	shared := t.TempDir()
	cl := startClusterFB(t, fcfg, map[string]string{"shard-a": shared, "shard-b": shared}, 2*time.Millisecond, true, chaosLease)

	victim := cl.midFlight(5, 40).Shard
	cl.shards[victim].Kill()

	v := cl.waitDone(60 * time.Second)
	assertHashes(t, v, want)

	if v.Field == nil || v.Field.Samples == 0 {
		t.Fatalf("fleet view carries no field-bus ledger: %+v", v.Field)
	}
	if v.Field.Gaps != 0 {
		t.Errorf("field ledger charged %d gaps — in-process sims polled per step must be gap-free", v.Field.Gaps)
	}
	if v.Gateway == nil || v.Gateway.Writes == 0 {
		t.Fatalf("no gateway writes recorded — actuation did not cross the wire: %+v", v.Gateway)
	}

	// The survivor's /metrics must expose the shared gateway series with a
	// shard label, plus the field ledger.
	survivor := "shard-a"
	if victim == survivor {
		survivor = "shard-b"
	}
	_, metrics := httpGet(t, cl.srvs[survivor].URL+"/metrics")
	for _, m := range []string{
		"tesla_gateway_requests_total{shard=\"" + survivor + "\"}",
		"tesla_gateway_writes_total{shard=\"" + survivor + "\"}",
		"tesla_shard_field_samples_total{shard=\"" + survivor + "\"}",
	} {
		if !strings.Contains(metrics, m) {
			t.Errorf("shard /metrics missing %s", m)
		}
	}
}

// TestFieldBusMigrationBitIdentical: a gateway-backed room is live-migrated
// between shards with separate data roots. The bundle carries the source
// poller's hand-off token, so beyond bit-identical trajectories the merged
// fleet field ledger is EXACT: one polled sample per evaluated step per
// room, zero gaps, zero duplicates — every sequence number accounted once
// across both hosts.
func TestFieldBusMigrationBitIdentical(t *testing.T) {
	fcfg := fieldFleetCfg(3, 67)
	want := referenceHashes(t, fcfg)
	cl := startClusterFB(t, fcfg, map[string]string{"shard-a": t.TempDir(), "shard-b": t.TempDir()}, 2*time.Millisecond, true, calmLease)

	mid := cl.midFlight(8, 40)
	room, source := mid.Room, mid.Shard
	target := "shard-a"
	if source == target {
		target = "shard-b"
	}

	body, _ := json.Marshal(map[string]any{"room": room, "target": target})
	resp, err := http.Post(cl.coordSrv.URL+"/migrate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate: status %d, body %s", resp.StatusCode, raw)
	}
	var rep MigrationReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("migrate: decode %v, body %s", err, raw)
	}

	v := cl.waitDone(60 * time.Second)
	assertHashes(t, v, want)

	// Exactness across the hand-off: all rooms fresh-started, every
	// evaluated step polled exactly once fleet-wide. A dropped token would
	// surface as gaps; a double-applied one as duplicate samples.
	steps := 3 * 60
	if v.Field == nil {
		t.Fatal("fleet view carries no field-bus ledger")
	}
	if int(v.Field.Samples) != steps || v.Field.Gaps != 0 {
		t.Errorf("fleet field ledger %d samples + %d gaps, want exactly %d + 0 — hand-off token lost or double-applied",
			v.Field.Samples, v.Field.Gaps, steps)
	}
	if got := v.Rollup.Samples + v.Rollup.Gaps; got != uint64(steps) || v.Rollup.Gaps != 0 {
		t.Errorf("fleet ingest ledger %d samples + %d gaps, want exactly %d + 0 — the migrated room's history was counted twice",
			v.Rollup.Samples, v.Rollup.Gaps, steps)
	}

	_, metrics := httpGet(t, cl.coordSrv.URL+"/metrics")
	for _, m := range []string{"tesla_gateway_requests_total ", "tesla_gateway_writes_total ", "tesla_fleet_field_samples_total "} {
		if !strings.Contains(metrics, m) {
			t.Errorf("coordinator /metrics missing summed %s", strings.TrimSpace(m))
		}
	}
}

// TestFieldBusMigrationLedgerExact drives the migration hand-off directly
// on autonomous shards and audits the two hosts' field ledgers seq by seq:
// the drain response carries Poller.Seqs() at the barrier, the successor
// resumes from it, and the merged ledgers satisfy
//
//	samples(src) + samples(tgt) + gaps == final sequence number
//
// with zero gaps and zero duplicates on healthy in-process sims.
func TestFieldBusMigrationLedgerExact(t *testing.T) {
	fcfg := fieldFleetCfg(1, 71)
	want := referenceHashes(t, fcfg)

	src, err := NewShard(ShardConfig{ID: "src", Fleet: fcfg, DataDir: t.TempDir(), StepDelay: 2 * time.Millisecond, FieldBus: true})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Stop()
	if _, err := src.Assign(0, 1); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		sts := src.Statuses()
		if len(sts) == 1 && sts[0].Step >= 8 && sts[0].Step <= 40 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("room never reached mid-sweep: %+v", sts)
		}
		time.Sleep(2 * time.Millisecond)
	}

	dr, err := src.Drain(0)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh-started room polls once per evaluated step: the hand-off token
	// IS the drain barrier.
	if len(dr.GatewaySeqs) != 1 || dr.GatewaySeqs[0] != uint64(dr.Step) {
		t.Fatalf("drain at step %d returned token %v, want [%d]", dr.Step, dr.GatewaySeqs, dr.Step)
	}
	srcField := src.FieldRollup()
	if srcField.Samples != uint64(dr.Step) || srcField.Gaps != 0 {
		t.Fatalf("source ledger %d samples + %d gaps at barrier %d", srcField.Samples, srcField.Gaps, dr.Step)
	}

	b, err := src.PackRoom(0)
	if err != nil {
		t.Fatal(err)
	}
	b.Step = dr.Step
	b.GatewaySeqs = dr.GatewaySeqs

	tgt, err := NewShard(ShardConfig{ID: "tgt", Fleet: fcfg, DataDir: t.TempDir(), StepDelay: time.Millisecond, FieldBus: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Stop()
	rr, err := tgt.Resume(ResumeRequest{Room: 0, Epoch: 2, Bundle: b})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Step != dr.Step {
		t.Fatalf("resumed at %d, barrier %d", rr.Step, dr.Step)
	}

	deadline = time.Now().Add(60 * time.Second)
	var final RoomStatus
	for {
		sts := tgt.Statuses()
		if len(sts) == 1 && sts[0].Done {
			final = sts[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("migrated room never finished: %+v", sts)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if final.Result == nil || final.Result.TrajectoryHash != want[0] {
		t.Fatalf("migrated trajectory hash %#x, reference %#x", final.Result.TrajectoryHash, want[0])
	}

	// Drain the finished room to surface the successor's final token: it
	// must have continued the SAME sequence stream to the horizon.
	dr2, err := tgt.Drain(0)
	if err != nil {
		t.Fatal(err)
	}
	steps := uint64(final.Planned)
	if len(dr2.GatewaySeqs) != 1 || dr2.GatewaySeqs[0] != steps {
		t.Fatalf("successor final token %v, want [%d] — sequence stream restarted or skipped", dr2.GatewaySeqs, steps)
	}

	tgtField := tgt.FieldRollup()
	merged := srcField
	merged.Merge(tgtField)
	if merged.Samples+merged.Gaps != steps {
		t.Errorf("merged ledgers: %d samples + %d gaps != final seq %d — a sequence number was dropped or double-counted",
			merged.Samples, merged.Gaps, steps)
	}
	if merged.Gaps != 0 {
		t.Errorf("healthy in-process sims charged %d gaps across the hand-off", merged.Gaps)
	}
	if srcField.Samples+tgtField.Samples != steps {
		t.Errorf("samples src(%d) + tgt(%d) != %d — duplicate or missing polls across the hand-off",
			srcField.Samples, tgtField.Samples, steps)
	}
}
