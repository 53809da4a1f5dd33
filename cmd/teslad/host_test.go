package main

import (
	"context"
	"fmt"
	"testing"

	"tesla/internal/fleet"
	"tesla/internal/modbus"
)

// TestHostMatchesFleetRun: rooms hosted by teslad — each stepped on its own
// goroutine and actuated over the real Modbus field bus — reproduce the
// batch fleet.Run trajectory bit for bit, straight through and across a
// crash at step 17 followed by a restart on the same stores.
func TestHostMatchesFleetRun(t *testing.T) {
	factory, err := policyFactory("modelfree")
	if err != nil {
		t.Fatal(err)
	}
	for _, rooms := range []int{1, 3} {
		t.Run(fmt.Sprintf("rooms-%d", rooms), func(t *testing.T) {
			cfg := fleet.DefaultConfig(rooms, 23, factory)
			cfg.EvalS = 30 * 60
			cfg.SnapshotEvery = 8

			ref := cfg
			ref.Quantize = modbus.QuantizeTempC
			want, err := fleet.Run(ref)
			if err != nil {
				t.Fatal(err)
			}
			check := func(label string, got []fleet.RoomResult) {
				t.Helper()
				for i, rr := range got {
					if rr.Steps != 30 || rr.TrajectoryHash != want.Rooms[i].TrajectoryHash {
						t.Errorf("%s: room %d ran %d steps, hash %016x; fleet.Run hash %016x",
							label, i, rr.Steps, rr.TrajectoryHash, want.Rooms[i].TrajectoryHash)
					}
				}
			}

			check("straight run", hostRun(t, cfg))

			cfg.DataDir = t.TempDir()
			h := newTestHost(t, cfg)
			for i := range h.runners {
				for k := 0; k < 17; k++ {
					if err := h.step(i); err != nil {
						t.Fatal(err)
					}
				}
			}
			h.abandon()
			check("crash at step 17 + restart", hostRun(t, cfg))
		})
	}
}

func newTestHost(t *testing.T, cfg fleet.Config) *host {
	t.Helper()
	names := make([]string, len(cfg.Rooms))
	for i := range names {
		names[i] = cfg.RoomName(i)
	}
	h, err := newHost(cfg, newOperator(names))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// hostRun hosts cfg to the end of its horizon, checking that a restarted
// room resumed from its store rather than from scratch.
func hostRun(t *testing.T, cfg fleet.Config) []fleet.RoomResult {
	t.Helper()
	h := newTestHost(t, cfg)
	for _, r := range h.runners {
		if cfg.DataDir != "" && r.StepIndex() != 17 {
			t.Errorf("room %s resumed at step %d, want 17", r.Name(), r.StepIndex())
		}
	}
	res, err := h.run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
