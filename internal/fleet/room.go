package fleet

import (
	"fmt"
	"time"

	"tesla/internal/control"
	"tesla/internal/faults"
	"tesla/internal/rng"
	"tesla/internal/safety"
	"tesla/internal/store"
	"tesla/internal/telemetry"
	"tesla/internal/testbed"
)

// roomRun is one room's in-flight control loop: the Loop over the room's
// plant and supervised policy, and (when durability is on) the room's WAL +
// snapshot store. Everything is room-local — the isolation contract — and
// live steps and replayed steps both run Loop.step, so the accumulator and
// hash values are bit-identical whether a step was executed live or
// re-derived during crash recovery.
type roomRun struct {
	*Loop
	cfg   *Config
	spec  RoomSpec
	tbCfg testbed.Config
	pol   control.Policy
	sup   *safety.Supervisor
	st    *store.Store
	q     *telemetry.Queue

	res RoomResult

	warmSteps int
	evalSteps int
	// startStep is the first evaluation step the live loop executes; recovery
	// moves it past the steps already re-derived from the WAL.
	startStep int

	// recWarm/recSteps are the records recovered from the WAL (empty on a
	// fresh store or with durability disabled).
	recWarm, recSteps []store.Record
	haveCkpt          bool
	ckpt              store.Checkpoint
}

// buildController constructs the room's policy and its safety supervisor from
// the room seed substreams — in the initial build and again when recovery must
// discard a half-restored controller and fall back to full replay. The seeds
// are pure functions of (fleet seed, stream), so a rebuilt controller is
// indistinguishable from a freshly booted one.
func (rr *roomRun) buildController() error {
	pol, err := rr.cfg.NewPolicy(rr.res.Room, rng.SeedFor(rr.cfg.Seed, policyStream(rr.res.Stream)))
	if err != nil {
		return fmt.Errorf("fleet: room %s: building policy: %w", rr.res.Name, err)
	}
	supCfg := safety.DefaultConfig(rr.cfg.ColdLimitC, rr.tbCfg.ACU.SetpointMinC, rr.tbCfg.ACU.SetpointMaxC)
	if rr.cfg.Safety != nil {
		supCfg = *rr.cfg.Safety
	}
	sup, err := safety.Wrap(pol, supCfg)
	if err != nil {
		return fmt.Errorf("fleet: room %s: %w", rr.res.Name, err)
	}
	rr.pol, rr.sup, rr.Policy = pol, sup, sup
	return nil
}

// durablePolicy reports whether the room's policy participates in
// checkpointing. Without it, checkpoints are not written and recovery
// replays the whole horizon through the freshly built controller — still
// bit-identical, just more replay work.
func (rr *roomRun) durablePolicy() (control.Durable, bool) {
	d, ok := rr.pol.(control.Durable)
	return d, ok
}

// checkSample cross-checks a re-simulated sample against its WAL record.
// The simulated plant is deterministic, so any divergence means the store
// belongs to a different build or configuration — counted, not fatal, since
// the re-simulated trajectory is internally consistent either way.
func (rr *roomRun) checkSample(logged, got *testbed.Sample) {
	if logged.SetpointC != got.SetpointC || logged.ACUPowerKW != got.ACUPowerKW ||
		logged.MaxColdAisle != got.MaxColdAisle || logged.TrueMaxColdC != got.TrueMaxColdC ||
		logged.TimeS != got.TimeS {
		rr.res.Recovery.PlantMismatches++
	}
}

// newRoomRun builds the room-local world: plant from the room's seed
// substreams, policy wrapped in its own safety supervisor, fault scenario
// hooked into the testbed, empty trace.
func newRoomRun(cfg *Config, idx int, q *telemetry.Queue) (*roomRun, error) {
	spec := cfg.Rooms[idx]
	stream := cfg.streamOf(idx)
	rr := &roomRun{
		cfg: cfg, spec: spec, q: q,
		res: RoomResult{Room: idx, Name: cfg.nameOf(idx), Stream: stream},
	}

	rr.tbCfg = cfg.Testbed
	rr.tbCfg.Seed = rng.SeedFor(cfg.Seed, testbedStream(stream))
	// Per-room heterogeneity overrides; zero values keep the fleet template.
	if spec.Servers > 0 {
		rr.tbCfg.Servers = spec.Servers
	}
	if spec.ACUCoolKW > 0 {
		rr.tbCfg.ACU.MaxCoolKW = spec.ACUCoolKW
	}
	if spec.ThermalMass > 0 && spec.ThermalMass != 1 {
		rr.tbCfg.Room.ColdCapKJPerK *= spec.ThermalMass
		rr.tbCfg.Room.HotCapKJPerK *= spec.ThermalMass
		rr.tbCfg.Room.RackCapKJPerK *= spec.ThermalMass
	}
	tb, err := testbed.New(rr.tbCfg)
	if err != nil {
		return nil, fmt.Errorf("fleet: room %s: %w", rr.res.Name, err)
	}
	tb.UseProfile(spec.Profile)
	tb.SetSetpoint(cfg.InitSpC)
	rr.Loop = NewLoop(tb, nil, cfg.ColdLimitC)
	rr.quantize, rr.actuate, rr.publish, rr.room = cfg.Quantize, cfg.Actuate, cfg.Publish, idx

	if err := rr.buildController(); err != nil {
		return nil, err
	}
	if spec.Scenario != nil {
		eng, err := faults.NewEngine(*spec.Scenario)
		if err != nil {
			return nil, fmt.Errorf("fleet: room %s: %w", rr.res.Name, err)
		}
		tb.AddStepHook(eng)
	}

	rr.warmSteps = int(cfg.WarmupS / rr.tbCfg.SamplePeriodS)
	rr.evalSteps = int(cfg.EvalS / rr.tbCfg.SamplePeriodS)
	rr.res.PlannedSteps = rr.evalSteps
	return rr, nil
}

// warmup advances the plant through the recorded warm-up window, logging any
// warm-up records the WAL does not already hold.
func (rr *roomRun) warmup() error {
	for i := 0; i < rr.warmSteps; i++ {
		s := rr.Advance()
		switch {
		case i < len(rr.recWarm):
			rr.checkSample(&rr.recWarm[i].Sample, &s)
		// Only re-log missing warm-up records while the log holds no step
		// records yet: warm-up frames appended after step frames would break
		// the log's partition invariant on the next recovery.
		case rr.st != nil && len(rr.recSteps) == 0:
			rec := store.Record{Kind: store.KindWarmup, Step: uint32(i), Sample: s}
			if err := rr.st.AppendRecord(&rec); err != nil {
				return fmt.Errorf("fleet: room %s: %w", rr.res.Name, err)
			}
		}
	}
	return nil
}

// writeCheckpoint snapshots the controller, supervisor and harness
// accumulators; step is the first evaluation step a future recovery would
// still need to replay.
func (rr *roomRun) writeCheckpoint(d control.Durable, step int) error {
	polBlob, err := d.Snapshot()
	if err != nil {
		return err
	}
	supBlob, err := rr.sup.Snapshot()
	if err != nil {
		return err
	}
	harness, err := rr.encodeHarness()
	if err != nil {
		return err
	}
	return rr.st.WriteCheckpoint(store.Checkpoint{
		Step: step, Policy: polBlob, Supervisor: supBlob, Harness: harness,
	})
}

// stepOnce executes evaluation step i live: the Loop's step, then push
// telemetry, log, checkpoint on the interval. Runner.Step is its one caller,
// so every host produces the same bits.
func (rr *roomRun) stepOnce(i int) error {
	stepStart := time.Now()
	sp, s, err := rr.Step()
	if err != nil {
		return fmt.Errorf("fleet: room %s: actuate step %d: %w", rr.res.Name, i, err)
	}
	if rr.spec.StallPerStep > 0 {
		time.Sleep(rr.spec.StallPerStep)
	}
	rr.res.latencies = append(rr.res.latencies, time.Since(stepStart))

	// Non-blocking by construction: a full queue evicts and counts, so
	// telemetry backpressure can never stall this loop.
	rr.q.Push(telemetry.RoomSample{Room: rr.res.Room, Seq: uint64(i), Level: int(rr.sup.Level()), S: s})

	if rr.st != nil {
		rec := store.Record{
			Kind: store.KindStep, Step: uint32(i), Setpoint: sp,
			Level: uint8(rr.sup.Level()), Sample: s,
		}
		if err := rr.st.AppendRecord(&rec); err != nil {
			return fmt.Errorf("fleet: room %s: %w", rr.res.Name, err)
		}
		snapEvery := rr.cfg.SnapshotEvery
		if snapEvery <= 0 {
			snapEvery = 64
		}
		if d, ok := rr.durablePolicy(); ok && (i+1)%snapEvery == 0 && i+1 < rr.evalSteps {
			if err := rr.writeCheckpoint(d, i+1); err != nil {
				return fmt.Errorf("fleet: room %s: checkpoint: %w", rr.res.Name, err)
			}
		}
	}
	return nil
}

// closeStore writes the final checkpoint (durable policies only) and closes
// the store; a restart of the completed horizon then recovers without
// replaying a single step.
func (rr *roomRun) closeStore() error {
	if rr.st == nil {
		return nil
	}
	if d, ok := rr.durablePolicy(); ok {
		if err := rr.writeCheckpoint(d, rr.Metrics.Steps); err != nil {
			return fmt.Errorf("fleet: room %s: final checkpoint: %w", rr.res.Name, err)
		}
	}
	if err := rr.st.Close(); err != nil {
		return fmt.Errorf("fleet: room %s: closing store: %w", rr.res.Name, err)
	}
	rr.st = nil
	return nil
}

// finish divides the accumulators and collects the supervisor's counters.
func (rr *roomRun) finish() RoomResult {
	rr.res.Metrics = rr.Metrics.Finish()
	rr.res.TrajectoryHash = rr.hash

	st := rr.sup.Stats()
	rr.res.SafetyMax = rr.sup.MaxLevel()
	rr.res.Degraded = rr.res.SafetyMax > safety.LevelNormal
	rr.res.Escalations = st.Escalations
	rr.res.Overrides = st.Overrides
	rr.res.Quarantines = st.QuarantineEvents
	_, rr.res.QueueDropped = rr.q.Stats()

	lat := append([]time.Duration(nil), rr.res.latencies...)
	ls := ComputeLatencyStats(lat)
	rr.res.LatencyP50, rr.res.LatencyP99 = ls.P50, ls.P99
	return rr.res
}
