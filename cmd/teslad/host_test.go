package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
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

			// Crash: every room's loop dies right after step 17, then the
			// host is killed — stores abandoned, field buses torn down.
			cfg.DataDir = t.TempDir()
			var crashed sync.WaitGroup
			crashed.Add(rooms)
			h := newHost(cfg, 0, func(_ int, r *fleet.Runner) {
				if r.StepIndex() == 17 {
					crashed.Done()
					runtime.Goexit()
				}
			})
			if _, err := addRooms(h, cfg); err != nil {
				t.Fatal(err)
			}
			crashed.Wait()
			h.Kill()
			check("crash at step 17 + restart", hostRun(t, cfg))
		})
	}
}

// hostRun hosts cfg to the end of its horizon, checking that a restarted
// room resumed from its store rather than from scratch.
func hostRun(t *testing.T, cfg fleet.Config) []fleet.RoomResult {
	t.Helper()
	h := newHost(cfg, 0, nil)
	defer h.Close()
	starts, err := addRooms(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range starts {
		if cfg.DataDir != "" && st.Step != 17 {
			t.Errorf("room %d resumed at step %d, want 17", i, st.Step)
		}
	}
	if err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	var res []fleet.RoomResult
	for _, st := range h.Statuses() {
		if st.Result == nil {
			t.Fatalf("room %d not finished: %+v", st.Room, st)
		}
		res = append(res, *st.Result)
	}
	if len(res) != len(cfg.Rooms) {
		t.Fatalf("%d rooms finished, want %d", len(res), len(cfg.Rooms))
	}
	return res
}
