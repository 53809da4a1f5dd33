package fleet

import (
	"errors"
	"testing"

	"tesla/internal/store"
)

// TestRunnerMatchesBatchRun: a room stepped on its own, one Step() at a
// time, produces the same bits as the same room inside a fleet Run beside
// its siblings — the property the sharded control plane stands on.
func TestRunnerMatchesBatchRun(t *testing.T) {
	ref, err := Run(shortConfig(3, 7))
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 3; idx++ {
		r, err := NewRunner(shortConfig(3, 7), idx, nil, "test")
		if err != nil {
			t.Fatal(err)
		}
		for !r.Done() {
			if err := r.Step(); err != nil {
				t.Fatal(err)
			}
		}
		res, err := r.Finish()
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Rooms[idx]
		if res.TrajectoryHash != want.TrajectoryHash {
			t.Errorf("room %d: runner hash %#x, batch %#x", idx, res.TrajectoryHash, want.TrajectoryHash)
		}
		if res.CEkWh != want.CEkWh || res.TSVFrac != want.TSVFrac || res.MeanSp != want.MeanSp {
			t.Errorf("room %d: runner metrics diverge from batch run", idx)
		}
	}
}

// TestRunnerDrainResumeBitIdentical is the hand-off core: drain a durable
// room mid-horizon (checkpoint barrier + closed store), resume it in a fresh
// Runner — a different host in real life — and the completed trajectory is
// bit-identical to a never-interrupted run.
func TestRunnerDrainResumeBitIdentical(t *testing.T) {
	ref, err := Run(durableShortConfig(2, 21))
	if err != nil {
		t.Fatal(err)
	}

	cfg := durableShortConfig(2, 21)
	cfg.DataDir = t.TempDir()
	cfg.SnapshotEvery = 10
	src, err := NewRunner(cfg, 0, nil, "source-shard")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 23; i++ {
		if err := src.Step(); err != nil {
			t.Fatal(err)
		}
	}
	step, err := src.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if step != 23 {
		t.Fatalf("drained at step %d, want 23", step)
	}

	dst, err := NewRunner(cfg, 0, nil, "target-shard")
	if err != nil {
		t.Fatal(err)
	}
	if !dst.Recovery().Recovered {
		t.Fatal("resumed runner recovered nothing — hand-off lost the durable state")
	}
	if dst.Recovery().SnapshotStep != 23 {
		t.Fatalf("resumed from checkpoint step %d, want the drain barrier at 23", dst.Recovery().SnapshotStep)
	}
	if dst.StepIndex() != 23 {
		t.Fatalf("resume positioned at step %d, want 23", dst.StepIndex())
	}
	for !dst.Done() {
		if err := dst.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := dst.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Rooms[0]
	if res.TrajectoryHash != want.TrajectoryHash {
		t.Fatalf("hand-off hash %#x, uninterrupted %#x — migration is not bit-identical", res.TrajectoryHash, want.TrajectoryHash)
	}
	if res.Recovery.DecisionMismatches != 0 || res.Recovery.PlantMismatches != 0 {
		t.Fatalf("replay mismatches after hand-off: %+v", res.Recovery)
	}
	if res.CEkWh != want.CEkWh || res.SafetyMax != want.SafetyMax || res.Escalations != want.Escalations {
		t.Fatal("metrics diverged across hand-off")
	}
}

// TestRunnerSecondHostRefused: while one Runner hosts a room, a second host
// opening the same data dir gets ErrStoreLocked naming the holder — the
// double-writer race a botched failover would otherwise hit.
func TestRunnerSecondHostRefused(t *testing.T) {
	cfg := durableShortConfig(1, 9)
	cfg.DataDir = t.TempDir()
	r1, err := NewRunner(cfg, 0, nil, "shard-alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Abandon()

	_, err = NewRunner(cfg, 0, nil, "shard-beta")
	if !errors.Is(err, store.ErrStoreLocked) {
		t.Fatalf("second host got %v, want ErrStoreLocked", err)
	}
	var lerr *store.LockedError
	if !errors.As(err, &lerr) || lerr.Holder != "shard-alpha" {
		t.Fatalf("lock error %v does not name shard-alpha", err)
	}
}
