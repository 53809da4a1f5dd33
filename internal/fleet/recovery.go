package fleet

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"tesla/internal/store"
)

// RecoveryInfo reports what a room's durable store contributed on boot. All
// counters are zero when durability is disabled or the store was fresh.
type RecoveryInfo struct {
	// Recovered is true when the store held any durable state (records or a
	// checkpoint) from a previous process.
	Recovered bool `json:"recovered,omitempty"`
	// SnapshotStep is the checkpoint step the controller resumed from, -1
	// when replay ran from scratch (no checkpoint, non-durable policy, or a
	// checkpoint that failed to restore).
	SnapshotStep int `json:"snapshot_step,omitempty"`
	// WarmupRecords / StepRecords count the valid WAL records recovered.
	WarmupRecords int `json:"warmup_records,omitempty"`
	StepRecords   int `json:"step_records,omitempty"`
	// ReplayedSteps counts evaluation steps re-decided through the real
	// Decide path (steps below the checkpoint only re-advance the plant).
	ReplayedSteps int `json:"replayed_steps,omitempty"`
	// DecisionMismatches counts replayed decisions that differ from the
	// logged set-point — zero unless the store came from a different build
	// or configuration.
	DecisionMismatches int `json:"decision_mismatches,omitempty"`
	// PlantMismatches counts re-simulated samples that differ from their WAL
	// record (same foreign-store signal as DecisionMismatches).
	PlantMismatches int `json:"plant_mismatches,omitempty"`

	WALCorruptions     int   `json:"wal_corruptions,omitempty"`
	WALTruncatedBytes  int64 `json:"wal_truncated_bytes,omitempty"`
	WALDroppedSegments int   `json:"wal_dropped_segments,omitempty"`
	InvalidSnapshots   int   `json:"invalid_snapshots,omitempty"`
}

// harnessState is the checkpointed view of the room accumulators — the
// partial sums as of the checkpoint step, so a recovered room's final result
// is bit-identical to an uninterrupted run's (same additions, same order).
type harnessState struct {
	Version int
	Steps   int
	Hash    uint64
	CEkWh   float64
	TSV     float64
	TrueTSV float64
	CI      float64
	MeanSp  float64
	MaxCold float64
}

const harnessVersion = 1

func (rr *roomRun) encodeHarness() ([]byte, error) {
	m := &rr.Metrics
	h := harnessState{
		Version: harnessVersion,
		Steps:   m.Steps,
		Hash:    rr.hash,
		CEkWh:   m.CEkWh,
		TSV:     m.TSVFrac,
		TrueTSV: m.TrueTSVFrac,
		CI:      m.CIFrac,
		MeanSp:  m.MeanSp,
		MaxCold: m.MaxCold,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(h); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeHarness(blob []byte) (harnessState, error) {
	var h harnessState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&h); err != nil {
		return h, err
	}
	if h.Version != harnessVersion {
		return h, fmt.Errorf("fleet: harness state version %d, want %d", h.Version, harnessVersion)
	}
	return h, nil
}

// openStoreAs opens the room's WAL + snapshot store and files the recovered
// records and checkpoint for warmup/replay to consume. holder names this host
// in the store's lock file, so a refused single-writer lock names the host
// that owns the room.
func (rr *roomRun) openStoreAs(dir, holder string) error {
	st, rec, err := store.Open(dir, store.Options{WAL: store.WALOptions{SyncEvery: rr.cfg.SyncEvery}, LockHolder: holder})
	if err != nil {
		return fmt.Errorf("fleet: room %s: %w", rr.res.Name, err)
	}
	warm, steps, err := store.Partition(rec.Records)
	if err != nil {
		// An out-of-order log is a foreign store; replaying it would corrupt
		// the trajectory, so fail loudly instead.
		st.Close()
		return fmt.Errorf("fleet: room %s: %w", rr.res.Name, err)
	}
	if len(warm) > rr.warmSteps || len(steps) > rr.evalSteps {
		st.Close()
		return fmt.Errorf("fleet: room %s: store holds %d warm-up + %d step records, horizon is %d + %d — config mismatch",
			rr.res.Name, len(warm), len(steps), rr.warmSteps, rr.evalSteps)
	}
	rr.st = st
	rr.recWarm, rr.recSteps = warm, steps
	rr.ckpt, rr.haveCkpt = rec.Checkpoint, rec.HaveCheckpoint

	info := &rr.res.Recovery
	info.Recovered = len(rec.Records) > 0 || rec.HaveCheckpoint
	info.SnapshotStep = -1
	info.WarmupRecords = len(warm)
	info.StepRecords = len(steps)
	info.WALCorruptions = rec.WAL.Corruptions
	info.WALTruncatedBytes = rec.WAL.TruncatedBytes
	info.WALDroppedSegments = rec.WAL.DroppedSegments
	info.InvalidSnapshots = rec.InvalidSnapshots
	return nil
}

// restoreCheckpoint rebuilds controller, supervisor and accumulator state
// from the checkpoint. The harness blob is decoded first (it is pure), so a
// stale-schema checkpoint is rejected before any component has been mutated.
func (rr *roomRun) restoreCheckpoint() error {
	d, ok := rr.durablePolicy()
	if !ok {
		return fmt.Errorf("policy is not durable")
	}
	h, err := decodeHarness(rr.ckpt.Harness)
	if err != nil {
		return err
	}
	if err := d.Restore(rr.ckpt.Policy); err != nil {
		return err
	}
	if err := rr.sup.Restore(rr.ckpt.Supervisor); err != nil {
		return err
	}
	rr.hash = h.Hash
	rr.Metrics = Metrics{
		Steps:       h.Steps,
		CEkWh:       h.CEkWh,
		TSVFrac:     h.TSV,
		TrueTSVFrac: h.TrueTSV,
		CIFrac:      h.CI,
		MeanSp:      h.MeanSp,
		MaxCold:     h.MaxCold,
	}
	return nil
}

// replay re-derives the evaluation steps the WAL holds. Below the restored
// checkpoint only the plant is re-advanced (controller state came from the
// snapshot); from the checkpoint on, every step runs through the real
// supervised Decide path, cross-checked against the logged decision. Either
// way the room lands on the exact state of a run that never stopped, and the
// live loop continues from startStep.
func (rr *roomRun) replay() error {
	if rr.st == nil || len(rr.recSteps) == 0 {
		return nil
	}
	info := &rr.res.Recovery

	snap := 0
	if rr.haveCkpt && rr.ckpt.Step >= 1 && rr.ckpt.Step <= len(rr.recSteps) {
		if _, ok := rr.durablePolicy(); ok {
			if err := rr.restoreCheckpoint(); err != nil {
				// Stale or foreign checkpoint: rebuild a fresh controller and
				// fall back to full replay. restoreCheckpoint may have
				// half-applied state, so the rebuild is not optional.
				if rerr := rr.buildController(); rerr != nil {
					return rerr
				}
				info.InvalidSnapshots++
			} else {
				snap = rr.ckpt.Step
				info.SnapshotStep = snap
			}
		}
	}

	for j := 0; j < snap; j++ {
		rec := &rr.recSteps[j]
		rr.tb.SetSetpoint(rec.Setpoint)
		s := rr.Advance()
		rr.checkSample(&rec.Sample, &s)
	}
	for j := snap; j < len(rr.recSteps); j++ {
		rec := &rr.recSteps[j]
		// The live step with the same quantization (logged set-points are
		// post-quantization), but never actuated: the plant is re-advanced
		// directly, so the step cannot fail.
		sp, s, _ := rr.step(false)
		if sp != rec.Setpoint {
			info.DecisionMismatches++
		}
		rr.checkSample(&rec.Sample, &s)
		info.ReplayedSteps++
	}
	rr.startStep = len(rr.recSteps)
	return nil
}
