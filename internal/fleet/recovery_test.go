package fleet

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"tesla/internal/control"
	"tesla/internal/dataset"
)

// durableEMA is a cheap stateful policy with a Durable implementation: it
// tracks an exponential moving average of the delivered cold-aisle maximum
// and steers the set-point against it. Every decision depends on the whole
// history through the EMA, so the tiniest recovery error compounds into a
// different trajectory — a sharp bit-identity probe without TESLA's training
// cost.
type durableEMA struct {
	bias float64 // from the room's policy seed, rebuilt by the factory
	ema  float64
	n    int
}

func newDurableEMA(room int, seed uint64) (control.Policy, error) {
	return &durableEMA{bias: 22.8 + float64(seed%64)/128}, nil
}

func (p *durableEMA) Name() string { return "durable-ema" }

func (p *durableEMA) Decide(tr *dataset.Trace, t int) float64 {
	v := tr.MaxCold[t]
	if p.n == 0 {
		p.ema = v
	} else {
		p.ema = 0.2*v + 0.8*p.ema
	}
	p.n++
	return p.bias + 0.05*(21.5-p.ema)
}

type emaState struct {
	EMA float64
	N   int
}

func (p *durableEMA) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(emaState{p.ema, p.n}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (p *durableEMA) Restore(blob []byte) error {
	var st emaState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		return err
	}
	p.ema, p.n = st.EMA, st.N
	return nil
}

func durableShortConfig(n int, seed uint64) Config {
	cfg := shortConfig(n, seed)
	cfg.NewPolicy = newDurableEMA
	return cfg
}

// crashAt kills every room of cfg before global evaluation step k, the way a
// dying host leaves it: each room is built (recovering whatever its store
// already holds), stepped while StepIndex() < k, then abandoned — buffered
// WAL records lost, tail possibly torn, store never closed. It returns each
// room's step index at the crash.
func crashAt(cfg Config, k int) ([]int, error) {
	steps := make([]int, len(cfg.Rooms))
	for i := range cfg.Rooms {
		r, err := NewRunner(cfg, i, nil, "")
		if err != nil {
			return nil, err
		}
		for r.StepIndex() < k {
			if err := r.Step(); err != nil {
				r.Abandon()
				return nil, err
			}
		}
		steps[i] = r.StepIndex()
		r.Abandon()
	}
	return steps, nil
}

// assertRecoveredMatches compares a recovered fleet result against the
// uninterrupted reference room by room, bit for bit.
func assertRecoveredMatches(t *testing.T, ref, got *Result) {
	t.Helper()
	if len(got.Rooms) != len(ref.Rooms) {
		t.Fatalf("%d rooms, want %d", len(got.Rooms), len(ref.Rooms))
	}
	for i := range ref.Rooms {
		r, g := ref.Rooms[i], got.Rooms[i]
		if g.TrajectoryHash != r.TrajectoryHash {
			t.Errorf("room %d: trajectory hash %#x after recovery, want %#x — recovery is not bit-identical",
				i, g.TrajectoryHash, r.TrajectoryHash)
		}
		if g.Steps != r.Steps || g.CEkWh != r.CEkWh || g.TSVFrac != r.TSVFrac ||
			g.TrueTSVFrac != r.TrueTSVFrac || g.CIFrac != r.CIFrac ||
			g.MeanSp != r.MeanSp || g.MaxCold != r.MaxCold {
			t.Errorf("room %d: metrics diverged after recovery:\n  got  %+v\n  want %+v", i, g, r)
		}
		if g.SafetyMax != r.SafetyMax || g.Escalations != r.Escalations || g.Overrides != r.Overrides {
			t.Errorf("room %d: supervisor counters diverged after recovery", i)
		}
		if g.Recovery.DecisionMismatches != 0 {
			t.Errorf("room %d: %d replayed decisions differ from the log", i, g.Recovery.DecisionMismatches)
		}
		if g.Recovery.PlantMismatches != 0 {
			t.Errorf("room %d: %d re-simulated samples differ from the log", i, g.Recovery.PlantMismatches)
		}
	}
}

// TestFleetCrashRecoveryBitIdentical is the subsystem's acceptance gate: kill
// a durable fleet run at an arbitrary evaluation step, recover from whatever
// the WAL and snapshots hold, and the completed trajectory — hash, energy,
// violation counts, supervisor counters — is bit-identical to a run that was
// never interrupted, for any snapshot interval, any fsync batching, any kill
// step and any worker count.
func TestFleetCrashRecoveryBitIdentical(t *testing.T) {
	ref, err := Run(durableShortConfig(3, 21))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name                 string
		snapEvery, syncEvery int
		k, workers           int
	}{
		{"early-kill-snap8", 8, 0, 2, 1},
		{"mid-kill-snap16-batched", 16, 4, 33, 2},
		{"kill-on-snapshot-boundary", 10, 0, 40, 2},
		{"late-kill-nosync", 16, -1, 59, 3},
		{"kill-before-first-snapshot", 64, 2, 7, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := durableShortConfig(3, 21)
			cfg.DataDir = t.TempDir()
			cfg.SnapshotEvery = tc.snapEvery
			cfg.SyncEvery = tc.syncEvery
			cfg.Workers = tc.workers

			killed, err := crashAt(cfg, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			for i, steps := range killed {
				if steps != tc.k {
					t.Fatalf("room %d executed %d steps before the crash, want %d", i, steps, tc.k)
				}
			}

			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, rr := range got.Rooms {
				if !rr.Recovery.Recovered {
					t.Fatalf("room %d recovered nothing from the store", i)
				}
				if tc.k > tc.snapEvery && rr.Recovery.SnapshotStep < 0 {
					t.Errorf("room %d: no checkpoint restored despite %d steps at interval %d",
						i, tc.k, tc.snapEvery)
				}
			}
			assertRecoveredMatches(t, ref, got)
		})
	}
}

// TestFleetRecoveryNonDurablePolicy: a policy without Snapshot/Restore still
// recovers bit-identically — no checkpoints are written, and the whole WAL
// tail replays through the real Decide path.
func TestFleetRecoveryNonDurablePolicy(t *testing.T) {
	ref, err := Run(shortConfig(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortConfig(2, 5)
	cfg.DataDir = t.TempDir()
	if _, err := crashAt(cfg, 25); err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range got.Rooms {
		if rr.Recovery.SnapshotStep != -1 {
			t.Errorf("room %d restored checkpoint step %d — a non-durable policy must never write one",
				i, rr.Recovery.SnapshotStep)
		}
		if rr.Recovery.ReplayedSteps != rr.Recovery.StepRecords {
			t.Errorf("room %d replayed %d of %d logged steps — full replay expected without a checkpoint",
				i, rr.Recovery.ReplayedSteps, rr.Recovery.StepRecords)
		}
	}
	assertRecoveredMatches(t, ref, got)
}

// TestFleetRecoveryAfterCompletion: restarting a run that already finished
// restores the final checkpoint, re-decides nothing, and reports the same
// result.
func TestFleetRecoveryAfterCompletion(t *testing.T) {
	cfg := durableShortConfig(2, 13)
	cfg.DataDir = t.TempDir()
	cfg.SnapshotEvery = 20
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range again.Rooms {
		if rr.Recovery.SnapshotStep != rr.PlannedSteps {
			t.Errorf("room %d resumed from checkpoint step %d, want the final checkpoint at %d",
				i, rr.Recovery.SnapshotStep, rr.PlannedSteps)
		}
		if rr.Recovery.ReplayedSteps != 0 {
			t.Errorf("room %d re-decided %d steps of a completed run", i, rr.Recovery.ReplayedSteps)
		}
	}
	assertRecoveredMatches(t, first, again)
}

// TestFleetRecoveryFreshStoreUnperturbed: turning durability on must not
// change a single bit of the trajectory.
func TestFleetRecoveryFreshStoreUnperturbed(t *testing.T) {
	ref, err := Run(durableShortConfig(2, 17))
	if err != nil {
		t.Fatal(err)
	}
	cfg := durableShortConfig(2, 17)
	cfg.DataDir = t.TempDir()
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range got.Rooms {
		if rr.Recovery.Recovered {
			t.Errorf("room %d claims recovery from a fresh store", i)
		}
	}
	assertRecoveredMatches(t, ref, got)
}

// TestFleetCrashRecoveryFuzz sweeps randomized (snapshot interval, fsync
// batch, worker count, kill schedule) combinations — including double-crash
// schedules where the second kill interrupts a run that itself recovered —
// and requires bit-identity every time. The generator is seeded, so a failure
// reproduces.
func TestFleetCrashRecoveryFuzz(t *testing.T) {
	ref, err := Run(durableShortConfig(2, 33))
	if err != nil {
		t.Fatal(err)
	}
	evalSteps := ref.Rooms[0].PlannedSteps

	iters := 8
	if testing.Short() {
		iters = 3
	}
	rng := rand.New(rand.NewSource(99))
	for it := 0; it < iters; it++ {
		cfg := durableShortConfig(2, 33)
		cfg.DataDir = t.TempDir()
		cfg.SnapshotEvery = 1 + rng.Intn(70)
		cfg.SyncEvery = rng.Intn(9) - 1
		cfg.Workers = 1 + rng.Intn(3)
		kills := []int{1 + rng.Intn(evalSteps-1)}
		if rng.Intn(2) == 1 && kills[0] < evalSteps-1 {
			kills = append(kills, kills[0]+1+rng.Intn(evalSteps-1-kills[0]))
		}
		for _, k := range kills {
			if _, err := crashAt(cfg, k); err != nil {
				t.Fatalf("iter %d (snap=%d sync=%d kills=%v): crash run: %v",
					it, cfg.SnapshotEvery, cfg.SyncEvery, kills, err)
			}
		}
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("iter %d (snap=%d sync=%d kills=%v): recovery run: %v",
				it, cfg.SnapshotEvery, cfg.SyncEvery, kills, err)
		}
		for i := range ref.Rooms {
			if got.Rooms[i].TrajectoryHash != ref.Rooms[i].TrajectoryHash {
				t.Errorf("iter %d (snap=%d sync=%d workers=%d kills=%v): room %d hash %#x, want %#x",
					it, cfg.SnapshotEvery, cfg.SyncEvery, cfg.Workers, kills, i,
					got.Rooms[i].TrajectoryHash, ref.Rooms[i].TrajectoryHash)
			}
			if got.Rooms[i].Recovery.DecisionMismatches != 0 || got.Rooms[i].Recovery.PlantMismatches != 0 {
				t.Errorf("iter %d: room %d logged-vs-replayed mismatches: %+v", it, i, got.Rooms[i].Recovery)
			}
		}
	}
}
