package fleet

import (
	"fmt"
	"path/filepath"

	"tesla/internal/safety"
	"tesla/internal/store"
	"tesla/internal/telemetry"
	"tesla/internal/testbed"
)

// Runner is one room's control loop, stepped by its host: it can start,
// pause, hand off or kill a room mid-horizon. Every host runs rooms this way
// — Run, the sharded control plane, the scheduler and teslad — so a room
// produces the same trajectory hash, bit for bit, whichever host steps it.
//
// A Runner is not safe for concurrent use; give each room one goroutine.
type Runner struct {
	rr     *roomRun
	cfg    Config
	next   int
	closed bool
}

// NewRunner builds, recovers and warms up room idx of cfg, leaving the
// Runner positioned at the first evaluation step that still needs to
// execute. With cfg.DataDir set the room's store is opened (single-writer
// locked), whatever a previous host persisted is replayed through the real
// Decide path, and stepping resumes where the durable record ends — the
// crash-recovery machinery, reused as the failover/migration path.
// lockHolder names this host in the store's lock file so a racing second
// host gets a useful refusal.
func NewRunner(cfg Config, idx int, q *telemetry.Queue, lockHolder string) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if idx < 0 || idx >= len(cfg.Rooms) {
		return nil, fmt.Errorf("fleet: room index %d outside fleet of %d", idx, len(cfg.Rooms))
	}
	if q == nil {
		q = cfg.NewQueue()
	}
	r := &Runner{cfg: cfg}
	rr, err := newRoomRun(&r.cfg, idx, q)
	if err != nil {
		return nil, err
	}
	r.rr = rr
	if r.cfg.DataDir != "" {
		if err := rr.openStoreAs(filepath.Join(r.cfg.DataDir, rr.res.Name), lockHolder); err != nil {
			return nil, err
		}
	}
	if err := rr.warmup(); err != nil {
		r.abandonStore()
		return nil, err
	}
	if err := rr.replay(); err != nil {
		r.abandonStore()
		return nil, err
	}
	r.next = rr.startStep
	return r, nil
}

func (r *Runner) abandonStore() {
	if r.rr.st != nil {
		r.rr.st.Abandon()
		r.rr.st = nil
	}
}

// Name returns the room's display name.
func (r *Runner) Name() string { return r.rr.res.Name }

// Room returns the room's index in the fleet config.
func (r *Runner) Room() int { return r.rr.res.Room }

// StepIndex is the next evaluation step Step would execute — after recovery,
// the first step the durable record does not already cover.
func (r *Runner) StepIndex() int { return r.next }

// PlannedSteps is the room's evaluation horizon.
func (r *Runner) PlannedSteps() int { return r.rr.evalSteps }

// Done reports whether the horizon is complete.
func (r *Runner) Done() bool { return r.next >= r.rr.evalSteps }

// Recovery reports what the room's store contributed when the Runner opened.
func (r *Runner) Recovery() RecoveryInfo { return r.rr.res.Recovery }

// Plant exposes the room's simulated testbed so a host can attach its
// field-bus stack (device sim bridge + gateway device) between NewRunner
// and the first Step — warmup and replay never actuate, so late binding
// is safe. The control loop itself must never touch the plant directly
// once Config.Actuate is set.
func (r *Runner) Plant() *testbed.Testbed { return r.rr.tb }

// Supervisor exposes the room's safety supervisor — its level, counters,
// quarantined probes and the wrapped policy (Inner) — for operator
// endpoints, and lets a host install its event sink after recovery replay
// (so replayed escalations are not reported twice). Like every Runner
// method it must be called from the goroutine that steps the room.
func (r *Runner) Supervisor() *safety.Supervisor { return r.rr.sup }

// StoreStats reports the room's WAL + snapshot counters; ok is false when
// durability is disabled or the store is already closed.
func (r *Runner) StoreStats() (st store.Stats, ok bool) {
	if r.rr.st == nil {
		return store.Stats{}, false
	}
	return r.rr.st.Stats(), true
}

// LastSample returns the most recent plant sample (from warm-up, recovery
// replay or the last Step) — the per-room observation a fleet-level
// scheduler reads at its step barrier: cold-aisle headroom
// (ColdLimitC − MaxColdAisle), compressor duty, IT power. The sample is the
// delivered telemetry view (fault hooks applied), which is exactly what a
// real scheduler would see. The returned sample shares its slices with the
// runner; callers must not mutate them.
func (r *Runner) LastSample() testbed.Sample { return r.rr.last }

// Step executes the next evaluation step live.
func (r *Runner) Step() error {
	if r.closed {
		return fmt.Errorf("fleet: room %s: runner closed", r.rr.res.Name)
	}
	if r.Done() {
		return fmt.Errorf("fleet: room %s: horizon complete", r.rr.res.Name)
	}
	if err := r.rr.stepOnce(r.next); err != nil {
		return err
	}
	r.next++
	return nil
}

// Drain is the hand-off write barrier: checkpoint the controller at the
// current step boundary, flush and close the store, release the lock. The
// room can then be resumed by another host — from this or any machine that
// can see the data directory — continuing bit-identically at StepIndex. The
// Runner is unusable afterwards.
func (r *Runner) Drain() (step int, err error) {
	if r.closed {
		return r.next, fmt.Errorf("fleet: room %s: runner closed", r.rr.res.Name)
	}
	r.closed = true
	return r.next, r.rr.closeStore()
}

// Finish completes a Done Runner: final checkpoint, store closed, metrics
// divided and counters collected.
func (r *Runner) Finish() (RoomResult, error) {
	if r.closed {
		return r.rr.res, fmt.Errorf("fleet: room %s: runner closed", r.rr.res.Name)
	}
	if !r.Done() {
		return r.rr.res, fmt.Errorf("fleet: room %s: finish at step %d of %d", r.rr.res.Name, r.next, r.rr.evalSteps)
	}
	r.closed = true
	if err := r.rr.closeStore(); err != nil {
		return r.rr.res, err
	}
	return r.rr.finish(), nil
}

// Abandon simulates this host dying with the room live: the store descriptor
// closes without flushing (buffered records lost, tail possibly torn) and
// the lock releases the way a dead process's descriptors release it. The
// room recovers on its next host exactly as after a real kill -9.
func (r *Runner) Abandon() {
	r.closed = true
	r.abandonStore()
}

// Metrics snapshots the room's accumulators over its executed steps,
// recovered steps included. Until Finish the fractions hold step counts —
// violation and interruption minutes — and MeanSp a sum.
func (r *Runner) Metrics() Metrics { return r.rr.Metrics }
