package controlplane

import (
	"context"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"tesla/internal/control"
	"tesla/internal/experiment"
	"tesla/internal/fleet"
	"tesla/internal/modbus"
	"tesla/internal/testbed"
)

// hostFleetCfg is one modelfree room with a durable store under dir: 60
// evaluated steps, checkpointing every 8.
func hostFleetCfg(dir string) fleet.Config {
	tb := testbed.DefaultConfig()
	cfg := fleet.DefaultConfig(1, 83, func(int, uint64) (control.Policy, error) {
		return experiment.NewModelFreePolicy(tb.ACU.SetpointMinC, tb.ACU.SetpointMaxC)
	})
	cfg.WarmupS = 1800
	cfg.EvalS = 3600
	cfg.SnapshotEvery = 8
	cfg.DataDir = dir
	return cfg
}

// parkAt returns a step hook that ends the room's loop right after step
// `step`, leaving the room unfinished at that boundary for Relinquish or
// Kill to take down — a deterministic mid-horizon stop.
func parkAt(step int) func(int, *fleet.Runner) {
	return func(_ int, r *fleet.Runner) {
		if r.StepIndex() == step {
			runtime.Goexit()
		}
	}
}

// waitParked waits until the room's loop has stopped at its park step.
func waitParked(t *testing.T, h *Host, step int) {
	t.Helper()
	h.mu.Lock()
	r := h.rooms[0]
	h.mu.Unlock()
	<-r.loopDone
	if st, _ := h.Status(0); st.Step != step || st.Done {
		t.Fatalf("room parked at %+v, want step %d", st, step)
	}
}

// finishedResult waits for the room to finish and returns its result.
func finishedResult(t *testing.T, h *Host) fleet.RoomResult {
	t.Helper()
	if err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, ok := h.Status(0)
	if !ok || st.Result == nil {
		t.Fatalf("room not finished: %+v", st)
	}
	return *st.Result
}

// TestHostMigrationLedgersExact drains a room on one Host at step 20,
// ships its store to a second Host with a separate data root, and resumes
// it there from the packed bundle. The trajectory matches the uninterrupted
// quantized reference, and across the two hosts the ingest and field
// ledgers each account for every evaluated step exactly once.
func TestHostMigrationLedgersExact(t *testing.T) {
	ref := hostFleetCfg("")
	ref.Quantize = modbus.QuantizeTempC
	want, err := fleet.Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	planned := uint64(want.Rooms[0].Steps)

	srcDir, tgtDir := t.TempDir(), t.TempDir()
	src := NewHost(HostConfig{ID: "src", Fleet: hostFleetCfg(srcDir), FieldBus: true}, parkAt(20))
	defer src.Close()
	if _, err := src.Add(0, 1, nil); err != nil {
		t.Fatal(err)
	}
	waitParked(t, src, 20)
	dr, err := src.Relinquish(0, false)
	if err != nil || dr.Step != 20 || len(dr.GatewaySeqs) != 1 || dr.GatewaySeqs[0] != 20 {
		t.Fatalf("drain = %+v, %v; want step 20, token [20]", dr, err)
	}
	name := ref.RoomName(0)
	b, err := PackBundle(filepath.Join(srcDir, name), 0, name, dr.Step)
	if err != nil {
		t.Fatal(err)
	}

	tgt := NewHost(HostConfig{ID: "tgt", Fleet: hostFleetCfg(tgtDir), FieldBus: true}, nil)
	defer tgt.Close()
	if err := UnpackBundle(filepath.Join(tgtDir, name), b); err != nil {
		t.Fatal(err)
	}
	ar, err := tgt.Add(0, 2, &dr)
	if err != nil || ar.Step != 20 || !ar.Recovered {
		t.Fatalf("resume = %+v, %v; want recovered at step 20", ar, err)
	}
	if got := finishedResult(t, tgt); got.TrajectoryHash != want.Rooms[0].TrajectoryHash {
		t.Fatalf("migrated hash %#x, reference %#x", got.TrajectoryHash, want.Rooms[0].TrajectoryHash)
	}

	ingest, field := src.Rollup(), src.FieldRollup()
	ingest.Merge(tgt.Rollup())
	field.Merge(tgt.FieldRollup())
	for name, l := range map[string]struct{ samples, gaps uint64 }{
		"ingest": {ingest.Samples, ingest.Gaps},
		"field":  {field.Samples, field.Gaps},
	} {
		if l.samples+l.gaps != planned || l.gaps != 0 {
			t.Errorf("%s ledger %d samples + %d gaps, want exactly %d + 0", name, l.samples, l.gaps, planned)
		}
	}
}

// TestHostFencedRelinquishLedger: a fenced relinquish of an unfinished room
// keeps its samples out of Rollup — its successor counts them as gaps —
// while an unfenced drain, or a room that already finished, keeps them.
func TestHostFencedRelinquishLedger(t *testing.T) {
	for _, tc := range []struct {
		name    string
		finish  bool
		fenced  bool
		samples uint64
	}{
		{"unfinished-fenced", false, true, 0},
		{"unfinished-unfenced", false, false, 20},
		{"finished-fenced", true, true, 60},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hook func(int, *fleet.Runner)
			if !tc.finish {
				hook = parkAt(20)
			}
			h := NewHost(HostConfig{ID: "h", Fleet: hostFleetCfg(t.TempDir()), FieldBus: true}, hook)
			defer h.Close()
			if _, err := h.Add(0, 1, nil); err != nil {
				t.Fatal(err)
			}
			if tc.finish {
				finishedResult(t, h)
			} else {
				waitParked(t, h, 20)
			}
			if _, err := h.Relinquish(0, tc.fenced); err != nil {
				t.Fatal(err)
			}
			if _, hosted := h.Status(0); hosted {
				t.Fatal("relinquished room still hosted")
			}
			if ru := h.Rollup(); ru.Samples != tc.samples || ru.Gaps != 0 {
				t.Errorf("rollup %d samples + %d gaps, want %d + 0", ru.Samples, ru.Gaps, tc.samples)
			}
			if _, err := h.Relinquish(0, tc.fenced); err == nil {
				t.Error("second relinquish of a room no longer hosted succeeded")
			}
		})
	}
}

// TestHostWaitReportsFailedRoom: a room whose step fails ends Wait with the
// step's error. Close then leaves its store as a crash would — no
// checkpoint of the decided but unexecuted step — and releases the lock, so
// the next host resumes the room at the failed step and finishes it on the
// uninterrupted reference trajectory.
func TestHostWaitReportsFailedRoom(t *testing.T) {
	ref := hostFleetCfg("")
	ref.Quantize = modbus.QuantizeTempC
	want, err := fleet.Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var h *Host
	h = NewHost(HostConfig{ID: "h", Fleet: hostFleetCfg(dir), FieldBus: true}, func(_ int, r *fleet.Runner) {
		if r.StepIndex() == 10 {
			h.Gateway().Close() // the next set-point write fails
		}
	})
	if _, err := h.Add(0, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "actuate step 10") {
		t.Fatalf("Wait = %v, want the failed actuation at step 10", err)
	}
	if st, _ := h.Status(0); st.Done || st.Error == "" || st.Step != 10 {
		t.Fatalf("failed room status %+v", st)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("closing the failed room: %v", err)
	}

	next := NewHost(HostConfig{ID: "next", Fleet: hostFleetCfg(dir), FieldBus: true}, nil)
	defer next.Close()
	if ar, err := next.Add(0, 2, nil); err != nil || ar.Step != 10 || !ar.Recovered {
		t.Fatalf("reopen = %+v, %v; want recovered at step 10", ar, err)
	}
	if got := finishedResult(t, next); got.TrajectoryHash != want.Rooms[0].TrajectoryHash {
		t.Fatalf("resumed hash %#x, reference %#x", got.TrajectoryHash, want.Rooms[0].TrajectoryHash)
	}
}
