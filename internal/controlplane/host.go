package controlplane

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tesla/internal/fleet"
	"tesla/internal/gateway"
	"tesla/internal/modbus"
	"tesla/internal/telemetry"
	"tesla/internal/testbed"
)

// HostConfig assembles a room host.
type HostConfig struct {
	// ID names the host in its rooms' store lock files.
	ID string
	// Fleet is the fleet every hosted room belongs to. Fleet.DataDir makes
	// the rooms durable: each opens its store under DataDir/<room-name> and
	// recovers whatever a previous host left there.
	Fleet fleet.Config
	// StepDelay paces each room's loop by sleeping between control steps —
	// zero for batch speed. Wall-clock only; trajectories are unaffected.
	StepDelay time.Duration
	// FieldBus puts a real Modbus field path under every room: an
	// in-process ACU device sim per room served over TCP, one shared
	// gateway actuating set-points and polling telemetry across that wire,
	// and the decide path quantized to wire resolution (Fleet.Quantize
	// defaults to modbus.QuantizeTempC) so trajectories stay bit-identical
	// to a quantized single-process reference.
	FieldBus bool
}

// hostState is a hosted room's lifecycle stage.
type hostState int

const (
	hostRunning hostState = iota
	hostDone
	hostFailed
)

// hostedRoom is one room on a Host: a fleet.Runner driven by its own loop
// goroutine, with a single-queue ingestor folding the room's telemetry and,
// on a field-bus host, the room's field path. The runner belongs to the loop
// goroutine while it runs; other goroutines read the published status under
// the host lock and touch the runner only after loopDone closes.
type hostedRoom struct {
	room      int
	runner    *fleet.Runner
	ing       *telemetry.Ingestor
	fb        *gateway.FieldBus // nil unless the host runs a field bus
	recovered bool              // the runner opened onto durable history

	stop     chan struct{} // drain request: the loop exits at the next step boundary
	kill     chan struct{} // crash simulation: the loop exits at once, store abandoned
	loopDone chan struct{}
	// drainMu serialises the host's sweeps and the final drain of ing: two
	// concurrent drains could fold batches out of order and charge false
	// gaps.
	drainMu  sync.Mutex
	stopOnce sync.Once
	killOnce sync.Once
	relOnce  sync.Once
	rel      DrainResponse // barrier step and hand-off token, captured at relinquish
	relErr   error

	// Guarded by Host.mu.
	epoch       uint64
	state       hostState
	finished    bool // the loop called Finish: the store is closed
	fieldMerged bool // fb's final ledger is folded into Host.fieldRetired
	status      RoomStatus
	err         error
}

// Host runs rooms: for each it builds the queue, ingestor and Runner,
// recovers the room from its store, attaches its field bus and steps it on
// its own goroutine until the horizon ends or the room is relinquished or
// killed. One ingest loop sweeps every hosted room's queue. It keeps the
// ingest and field ledgers of the rooms it hosts and has hosted. A
// control-plane shard and standalone teslad are each a Host plus their own
// surface.
type Host struct {
	cfg    HostConfig
	onStep func(room int, r *fleet.Runner)
	gw     *gateway.Gateway // nil unless cfg.FieldBus

	settled    chan struct{} // a room finished, failed or left (Wait's wake-up)
	stopIngest context.CancelFunc
	ingestDone chan struct{}

	mu           sync.Mutex
	rooms        map[int]*hostedRoom
	retired      telemetry.Rollup // ingest ledgers of rooms no longer hosted
	fieldRetired telemetry.Rollup // field-bus ledgers of rooms no longer hosted
	closed       bool
}

// NewHost builds an empty room host. onStep, when non-nil, runs on each
// room's loop goroutine once before its first live step and again after
// every step — the place a caller publishes per-room views of the Runner.
// The host's ingest loop runs until Close or Kill.
func NewHost(cfg HostConfig, onStep func(room int, r *fleet.Runner)) *Host {
	if cfg.FieldBus && cfg.Fleet.Quantize == nil {
		// The wire carries centidegree registers; quantizing the decide path
		// makes the Modbus-actuated trajectory bit-identical to a quantized
		// in-process reference.
		cfg.Fleet.Quantize = modbus.QuantizeTempC
	}
	h := &Host{cfg: cfg, onStep: onStep, settled: make(chan struct{}, 1), rooms: make(map[int]*hostedRoom),
		ingestDone: make(chan struct{})}
	if cfg.FieldBus {
		h.gw = gateway.New(gateway.Config{})
	}
	var ctx context.Context
	ctx, h.stopIngest = context.WithCancel(context.Background())
	go h.ingestLoop(ctx)
	return h
}

// Gateway is the host's field-bus gateway — the handle an ingest pipeline
// registers its modbus input against. Nil unless FieldBus is set.
func (h *Host) Gateway() *gateway.Gateway { return h.gw }

// Add builds, recovers and starts room at an assignment epoch. For a room
// already hosted it is idempotent at the same or a newer epoch (the epoch is
// adopted and current progress reported) and fenced (ErrFenced) below it.
// Concurrent calls are safe; a racing second build of the same room is
// abandoned in favour of the first. handoff is nil, or the migration
// barrier a predecessor drained the room at: the new ingestor and
// field-bus poller then continue the predecessor's sequence streams
// instead of counting its history as gaps.
func (h *Host) Add(room int, epoch uint64, handoff *DrainResponse) (AssignResponse, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return AssignResponse{}, h.stoppedErr()
	}
	if r, ok := h.rooms[room]; ok {
		defer h.mu.Unlock()
		if epoch < r.epoch {
			return AssignResponse{}, fmt.Errorf("assign room %d epoch %d < hosted %d: %w", room, epoch, r.epoch, ErrFenced)
		}
		r.epoch = epoch
		r.status.Epoch = epoch
		return AssignResponse{Step: r.status.Step, Recovered: r.recovered}, nil
	}
	h.mu.Unlock()

	cfg := h.cfg.Fleet
	q := cfg.NewQueue()
	r := &hostedRoom{
		room:     room,
		epoch:    epoch,
		stop:     make(chan struct{}),
		kill:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	if h.gw != nil {
		// The hooks close over r; r.fb is installed below, once the runner
		// exists (the bridge needs the plant) and before the loop starts.
		// Warm-up and recovery replay never actuate, so late binding is safe.
		cfg.Actuate = func(_ int, spC float64) error { return r.fb.Actuate(spC) }
		cfg.Publish = func(_ int, s testbed.Sample) { r.fb.Publish(s) }
	}
	runner, err := fleet.NewRunner(cfg, room, q, h.cfg.ID)
	if err != nil {
		return AssignResponse{}, err
	}
	r.runner = runner
	r.recovered = runner.Recovery().Recovered
	r.ing = telemetry.NewIngestor([]*telemetry.Queue{q}, cfg.ColdLimitC, cfg.Testbed.SamplePeriodS, cfg.Batch)
	var startSeqs []uint64
	if handoff != nil {
		r.ing.SeedSeq(0, uint64(handoff.Step))
		startSeqs = handoff.GatewaySeqs
	}
	if h.gw != nil {
		r.fb, err = gateway.AttachFieldBus(h.gw, cfg.RoomName(room), runner.Plant(), gateway.PollerConfig{
			ColdLimitC: cfg.ColdLimitC,
			PeriodS:    cfg.Testbed.SamplePeriodS,
			Batch:      cfg.Batch,
			StartSeqs:  startSeqs,
		})
		if err != nil {
			runner.Abandon()
			return AssignResponse{}, err
		}
	}
	start := AssignResponse{Step: runner.StepIndex(), Recovered: r.recovered}
	r.status = RoomStatus{Room: room, Epoch: epoch, Step: start.Step, Planned: runner.PlannedSteps()}

	h.mu.Lock()
	prev, raced := h.rooms[room]
	closed := h.closed
	if !closed && !raced {
		h.rooms[room] = r
		h.mu.Unlock()
		go h.loop(r)
		return start, nil
	}
	if raced {
		// Lost a race with a concurrent Add; the incumbent stays.
		start = AssignResponse{Step: prev.status.Step, Recovered: prev.recovered}
	}
	h.mu.Unlock()
	runner.Abandon()
	if r.fb != nil {
		r.fb.Close()
	}
	if closed {
		return AssignResponse{}, h.stoppedErr()
	}
	return start, nil
}

func (h *Host) stoppedErr() error {
	return fmt.Errorf("controlplane: host %s is stopped", h.cfg.ID)
}

// ingestLoop sweeps every hosted room's telemetry queue once per
// Fleet.IngestEvery until ctx ends, so an idle host wakes once per interval
// whatever its room count.
func (h *Host) ingestLoop(ctx context.Context) {
	defer close(h.ingestDone)
	every := h.cfg.Fleet.IngestEvery
	if every <= 0 {
		every = 200 * time.Microsecond
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	var rooms []*hostedRoom
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		h.mu.Lock()
		rooms = rooms[:0]
		for _, r := range h.rooms {
			rooms = append(rooms, r)
		}
		h.mu.Unlock()
		for _, r := range rooms {
			r.drain(false)
		}
	}
}

// drain folds one batch of the room's queued telemetry, or with final
// every batch until the queue is empty — the last drain, once the room's
// loop has exited and nothing more is pushed.
func (r *hostedRoom) drain(final bool) {
	r.drainMu.Lock()
	defer r.drainMu.Unlock()
	for r.ing.DrainOnce() > 0 && final {
	}
}

// loop drives one room to the end of its horizon, publishing its step under
// the host lock after every step. On stop it exits at a step boundary and
// leaves draining to the requester; on kill it exits at once.
func (h *Host) loop(r *hostedRoom) {
	defer close(r.loopDone)
	if h.onStep != nil {
		h.onStep(r.room, r.runner)
	}
	for !r.runner.Done() {
		select {
		case <-r.stop:
			return
		case <-r.kill:
			return
		default:
		}
		if err := r.runner.Step(); err != nil {
			h.settle(r, nil, err)
			return
		}
		h.mu.Lock()
		r.status.Step = r.runner.StepIndex()
		h.mu.Unlock()
		if h.onStep != nil {
			h.onStep(r.room, r.runner)
		}
		if d := h.cfg.StepDelay; d > 0 {
			select {
			case <-r.stop:
				return
			case <-r.kill:
				return
			case <-time.After(d):
			}
		}
	}
	res, err := r.runner.Finish()
	// Fold the room's remaining telemetry before reporting it done, so
	// whoever observes a finished room also observes its complete ledgers.
	r.drain(true)
	h.closeFieldBus(r)
	h.settle(r, &res, err)
}

// settle records a room's outcome: its result once finished, or the error
// that stopped it.
func (h *Host) settle(r *hostedRoom, res *fleet.RoomResult, err error) {
	h.mu.Lock()
	r.finished = res != nil
	if err != nil {
		r.state = hostFailed
		r.err = err
		r.status.Error = err.Error()
	} else {
		r.state = hostDone
		r.status.Done = true
		r.status.Result = res
	}
	h.mu.Unlock()
	h.wake()
}

// wake tells Wait that a room settled or left.
func (h *Host) wake() {
	select {
	case h.settled <- struct{}{}:
	default:
	}
}

// Wait blocks until every hosted room has finished, a room has failed, or
// ctx ends, and returns the failed rooms' errors.
func (h *Host) Wait(ctx context.Context) error {
	for {
		h.mu.Lock()
		running := 0
		var errs []error
		for _, r := range h.sortedLocked() {
			switch r.state {
			case hostRunning:
				running++
			case hostFailed:
				errs = append(errs, r.err)
			}
		}
		h.mu.Unlock()
		if running == 0 || len(errs) > 0 {
			return errors.Join(errs...)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-h.settled:
		}
	}
}

// closeFieldBus tears down a room's field path and folds its final poll
// ledger into the retired field rollup exactly once. It returns the
// hand-off token (nil without a field bus). Idempotent.
func (h *Host) closeFieldBus(r *hostedRoom) []uint64 {
	if r.fb == nil {
		return nil
	}
	seqs, roll := r.fb.Close()
	h.mu.Lock()
	if !r.fieldMerged {
		r.fieldMerged = true
		h.fieldRetired.Merge(roll)
	}
	h.mu.Unlock()
	return seqs
}

// Relinquish stops hosting room: its loop exits at a step boundary, an
// unfinished room is checkpointed and its store closed — the migration
// write barrier — a failed room's store is closed as a crash leaves it, and
// the room's ledgers join the retired rollups. It returns the
// barrier step with the field-bus hand-off token, plus any error closing the
// store. A fenced relinquish — the room already lives on a successor —
// keeps an unfinished room's ingest ledger out of Rollup, the accounting a
// killed host gets: the successor counts every step below its start as a
// sequence gap, so these samples would be counted twice. Concurrent callers
// (heartbeat fencing racing a drain RPC) all get the first one's result.
func (h *Host) Relinquish(room int, fenced bool) (DrainResponse, error) {
	h.mu.Lock()
	r, ok := h.rooms[room]
	h.mu.Unlock()
	if !ok {
		return DrainResponse{}, fmt.Errorf("controlplane: host %s does not host room %d", h.cfg.ID, room)
	}
	return h.relinquish(r, fenced)
}

func (h *Host) relinquish(r *hostedRoom, fenced bool) (DrainResponse, error) {
	r.relOnce.Do(func() {
		r.stopOnce.Do(func() { close(r.stop) })
		<-r.loopDone
		r.drain(true)
		r.rel.GatewaySeqs = h.closeFieldBus(r)
		r.rel.Step = r.runner.StepIndex()
		h.mu.Lock()
		state, finished := r.state, r.finished
		h.mu.Unlock()
		switch {
		case state == hostFailed:
			// A failed step may have decided without executing, and a
			// checkpoint of that policy state would fork the trajectory on
			// resume. Leave the store as a crash would: recovery replays
			// the WAL instead.
			r.runner.Abandon()
		case !finished:
			r.rel.Step, r.relErr = r.runner.Drain()
		}
		h.mu.Lock()
		if state != hostRunning || !fenced {
			h.retired.Merge(r.ing.Rollup())
		}
		delete(h.rooms, r.room)
		h.mu.Unlock()
		h.wake()
	})
	return r.rel, r.relErr
}

// Close relinquishes every hosted room (unfenced: each finishes or drains)
// and shuts the gateway down. The host accepts no more rooms. It returns
// the rooms' store-closing errors.
func (h *Host) Close() error {
	var errs []error
	for _, r := range h.shutdown() {
		_, err := h.relinquish(r, false)
		errs = append(errs, err)
	}
	h.stopIngest()
	<-h.ingestDone
	if h.gw != nil {
		h.gw.Close()
	}
	return errors.Join(errs...)
}

// Kill simulates the host dying mid-step — kill -9, not shutdown. Loops
// exit without checkpointing, stores are abandoned exactly as a dead
// process leaves them (buffered tail lost, locks released by the kernel),
// and field paths die with their in-memory sequence ledgers, so a successor
// starts fresh streams.
func (h *Host) Kill() {
	for _, r := range h.shutdown() {
		r.killOnce.Do(func() { close(r.kill) })
		<-r.loopDone
		r.runner.Abandon()
		r.drain(true)
		if r.fb != nil {
			r.fb.Close()
		}
	}
	h.stopIngest()
	<-h.ingestDone
	if h.gw != nil {
		h.gw.Close()
	}
}

// shutdown stops the host accepting rooms and lists the ones it hosts.
func (h *Host) shutdown() []*hostedRoom {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	return h.sortedLocked()
}

// sortedLocked lists the hosted rooms in room order.
func (h *Host) sortedLocked() []*hostedRoom {
	out := make([]*hostedRoom, 0, len(h.rooms))
	for _, r := range h.rooms {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].room < out[j].room })
	return out
}

// Status reports one hosted room's status.
func (h *Host) Status(room int) (RoomStatus, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	r, ok := h.rooms[room]
	if !ok {
		return RoomStatus{}, false
	}
	return r.status, true
}

// Statuses snapshots the hosted rooms' statuses in room order.
func (h *Host) Statuses() []RoomStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]RoomStatus, 0, len(h.rooms))
	for _, r := range h.sortedLocked() {
		out = append(out, r.status)
	}
	return out
}

// Rollup merges the hosted rooms' ingest ledgers with those of rooms that
// already left this host.
func (h *Host) Rollup() telemetry.Rollup {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.retired
	for _, r := range h.rooms {
		out.Merge(r.ing.Rollup())
	}
	return out
}

// FieldRollup merges the hosted rooms' live field-bus poll ledgers with the
// final ledgers of rooms that already left this host. Zero without a field
// bus.
func (h *Host) FieldRollup() telemetry.Rollup {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.fieldRetired
	for _, r := range h.rooms {
		if r.fb != nil && !r.fieldMerged {
			out.Merge(r.fb.Rollup())
		}
	}
	return out
}

// RoomAggs reports each hosted room's ingested view in room order, under its
// fleet room index (each room's own ingestor knows it only as room 0).
func (h *Host) RoomAggs() []telemetry.RoomAgg {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]telemetry.RoomAgg, 0, len(h.rooms))
	for _, r := range h.sortedLocked() {
		agg := r.ing.RoomAggs()[0]
		agg.Room = r.room
		out = append(out, agg)
	}
	return out
}
