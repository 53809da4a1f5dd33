package controlplane

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"tesla/internal/fleet"
	"tesla/internal/gateway"
	"tesla/internal/ingest"
	"tesla/internal/modbus"
	"tesla/internal/scheduler"
	"tesla/internal/telemetry"
	"tesla/internal/testbed"
)

// ShardConfig assembles one room-shard worker.
type ShardConfig struct {
	// ID names this shard on the placement ring and in lock files. Required
	// and unique per shard.
	ID string
	// Fleet is the full fleet configuration — identical on every shard and
	// on the coordinator, so any shard can host any room. The coordinator
	// decides which rooms this shard actually runs.
	Fleet fleet.Config
	// DataDir is this shard's durable root; each hosted room stores under
	// DataDir/<room-name>. Shards sharing a root get failover recovery for
	// free (the survivor opens the dead shard's stores); shards with
	// distinct roots rely on live migration to move durable state. Required.
	DataDir string
	// StepDelay paces each hosted room's loop by sleeping between control
	// steps — zero for batch speed, non-zero to keep rooms in flight long
	// enough for chaos tests and demos to interrupt them. Wall-clock only;
	// trajectories are unaffected.
	StepDelay time.Duration
	// Coordinator is the coordinator's base URL; empty runs the shard
	// autonomously (no registration, no heartbeats — rooms are assigned via
	// its own API and run to completion regardless).
	Coordinator string
	// Advertise is the base URL the coordinator dials this shard back on.
	// Required when Coordinator is set.
	Advertise string
	// HeartbeatEvery is the lease renewal period (default 1s).
	HeartbeatEvery time.Duration
	// Seed seeds this shard's RPC backoff jitter.
	Seed uint64
	// RPC tunes the shard→coordinator client; Ident and Seed are filled
	// from ID/Seed.
	RPC ClientOptions
	// GatewayStats, when set, is sampled into every heartbeat so the
	// coordinator's fleet view includes field-bus health.
	GatewayStats func() gateway.Stats
	// IngestStats, when set, is sampled into every heartbeat so the
	// coordinator's fleet view includes this shard's telemetry-ingest
	// pipeline (inputs, exact drop/gap ledger, TSDB tier sizes).
	IngestStats func() ingest.Stats
	// SchedCounters, when set, is sampled into every heartbeat so the
	// coordinator's fleet view rolls up this shard's batch-scheduler ledger
	// (placements, deferrals, migrations by reason, queue depths).
	SchedCounters func() scheduler.Counters
	// FieldBus puts a real Modbus field path under every hosted room: one
	// in-process ACU device sim per room served over TCP, a shared shard
	// gateway actuating set-points and polling telemetry across that wire,
	// and the decide path quantized to wire resolution (Fleet.Quantize
	// defaults to modbus.QuantizeTempC) so trajectories stay bit-identical
	// to a quantized single-process reference. Live migration carries each
	// room's Poller.Seqs() hand-off token in the bundle, so the successor's
	// poller continues the sequence stream with every number accounted
	// exactly once across both hosts' ledgers.
	FieldBus bool
	// FieldBusConfig tunes the shard gateway when FieldBus is set.
	FieldBusConfig gateway.Config
}

// hostState is a hosted room's lifecycle stage.
type hostState int

const (
	hostRunning hostState = iota
	hostDone
	hostFailed
)

// roomHost is one hosted room: a fleet.Runner driven by its own goroutine,
// with a single-queue ingestor folding the room's telemetry. The runner is
// owned exclusively by the loop goroutine while it runs; other goroutines
// read the published status under the shard lock and only touch the runner
// after loopDone closes.
type roomHost struct {
	room  int
	epoch uint64

	runner *fleet.Runner
	ing    *telemetry.Ingestor
	q      *telemetry.Queue
	fb     *gateway.FieldBus // nil unless the shard runs a field bus

	recovered bool // captured at creation: runner opened onto durable history

	stop     chan struct{} // drain request: loop exits at the next step boundary
	kill     chan struct{} // crash simulation: loop exits immediately, store abandoned
	loopDone chan struct{}
	ingStop  chan struct{}
	ingDone  chan struct{}
	stopOnce sync.Once
	killOnce sync.Once
	ingOnce  sync.Once
	relOnce  sync.Once
	relStep  int
	relSeqs  []uint64 // field-bus hand-off token captured at relinquish

	fieldMerged bool // guarded by Shard.mu: fb's final ledger folded into fieldRetired

	// Guarded by Shard.mu.
	state  hostState
	status RoomStatus
	result *fleet.RoomResult
	err    error
}

// Shard hosts a subset of the fleet's rooms. It exposes an internal HTTP
// API (Handler) for the coordinator and keeps stepping its rooms whether or
// not the coordinator is reachable — the control plane can place and move
// rooms, but control itself never waits on it.
type Shard struct {
	cfg ShardConfig

	gw *gateway.Gateway // field-bus gateway; nil unless cfg.FieldBus

	mu           sync.Mutex
	rooms        map[int]*roomHost
	retired      telemetry.Rollup // rollup contribution of rooms no longer hosted
	fieldRetired telemetry.Rollup // field-bus ledgers of rooms no longer hosted
	lease        uint64
	killed       bool
	paused       bool // heartbeats suppressed (zombie simulation)

	fencedRooms  uint64 // assignments relinquished after coordinator fencing
	leaseFences  uint64 // whole-lease fences (shard was presumed dead)
	beatFailures uint64

	idem *idemCache
	mux  *http.ServeMux

	client *Client
	stop   chan struct{}
	wg     sync.WaitGroup
}

// NewShard builds a shard worker. The fleet config is validated here so a
// bad config fails at boot, not at first placement.
func NewShard(cfg ShardConfig) (*Shard, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("controlplane: shard needs an ID")
	}
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("controlplane: shard %s needs a DataDir", cfg.ID)
	}
	if err := cfg.Fleet.Validate(); err != nil {
		return nil, err
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	cfg.RPC.Ident = cfg.ID
	cfg.RPC.Seed = cfg.Seed
	if cfg.FieldBus && cfg.Fleet.Quantize == nil {
		// The wire carries centidegree registers; quantizing the decide path
		// makes the Modbus-actuated trajectory bit-identical to a quantized
		// in-process reference.
		cfg.Fleet.Quantize = modbus.QuantizeTempC
	}
	s := &Shard{
		cfg:   cfg,
		rooms: make(map[int]*roomHost),
		idem:  newIdemCache(0),
		stop:  make(chan struct{}),
	}
	if cfg.FieldBus {
		s.gw = gateway.New(cfg.FieldBusConfig)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/rooms", s.handleRooms)
	s.mux.HandleFunc("/assign", s.handleAssign)
	s.mux.HandleFunc("/drain", s.handleDrain)
	s.mux.HandleFunc("/bundle", s.handleBundle)
	s.mux.HandleFunc("/resume", s.handleResume)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s, nil
}

// ID returns the shard's identity.
func (s *Shard) ID() string { return s.cfg.ID }

// Handler returns the shard's internal HTTP API.
func (s *Shard) Handler() http.Handler { return s.mux }

// SetAdvertise sets the base URL the coordinator dials this shard back on.
// Call before Start (the listener's address usually isn't known until the
// server is bound).
func (s *Shard) SetAdvertise(u string) { s.cfg.Advertise = u }

// Start launches the registration/heartbeat loop when a coordinator is
// configured. Autonomous shards (no coordinator) need no Start.
func (s *Shard) Start() {
	if s.cfg.Coordinator == "" {
		return
	}
	s.client = NewClient(s.cfg.Coordinator, s.cfg.RPC)
	s.wg.Add(1)
	go s.heartbeatLoop()
}

// Stop drains every hosted room (checkpoint + close, locks released) and
// stops the heartbeat loop. The shard's rooms can be re-hosted elsewhere.
func (s *Shard) Stop() {
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return
	}
	s.killed = true
	hosts := make([]*roomHost, 0, len(s.rooms))
	for _, h := range s.rooms {
		hosts = append(hosts, h)
	}
	s.mu.Unlock()
	close(s.stop)
	for _, h := range hosts {
		s.relinquish(h, false)
	}
	s.wg.Wait()
	if s.gw != nil {
		s.gw.Close()
	}
}

// Kill simulates this shard dying mid-step — kill -9, not shutdown. Room
// loops exit without checkpointing, stores are abandoned exactly as a dead
// process leaves them (buffered tail lost, locks released by the kernel),
// and heartbeats stop so the coordinator stages the shard through suspect
// to dead.
func (s *Shard) Kill() {
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return
	}
	s.killed = true
	hosts := make([]*roomHost, 0, len(s.rooms))
	for _, h := range s.rooms {
		hosts = append(hosts, h)
	}
	s.mu.Unlock()
	close(s.stop)
	for _, h := range hosts {
		h.killOnce.Do(func() { close(h.kill) })
		<-h.loopDone
		h.runner.Abandon()
		h.ingOnce.Do(func() { close(h.ingStop) })
		<-h.ingDone
		if h.fb != nil {
			// The field path dies with the process; its in-memory seq ledger
			// is lost exactly as a crashed gateway's would be — the successor
			// starts a fresh stream (no hand-off token).
			h.fb.Close()
		}
	}
	s.wg.Wait()
	if s.gw != nil {
		s.gw.Close()
	}
}

// PauseHeartbeats suppresses lease renewal without stopping room loops —
// the zombie scenario: a shard that looks dead to the coordinator while its
// rooms keep stepping and its stores stay locked.
func (s *Shard) PauseHeartbeats() {
	s.mu.Lock()
	s.paused = true
	s.mu.Unlock()
}

// ResumeHeartbeats ends the zombie simulation; the next beat will be fenced
// if the coordinator already declared this shard dead.
func (s *Shard) ResumeHeartbeats() {
	s.mu.Lock()
	s.paused = false
	s.mu.Unlock()
}

// Rollup merges the shard's hosted-room ingestors (plus rooms already
// retired from this shard) into one shard-level telemetry rollup.
func (s *Shard) Rollup() telemetry.Rollup {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.retired
	for _, h := range s.rooms {
		out.Merge(h.ing.Rollup())
	}
	return out
}

// FieldRollup merges every hosted room's live field-bus poll ledger with
// the retired contribution of rooms that already left this shard. Zero
// when the shard runs no field bus.
func (s *Shard) FieldRollup() telemetry.Rollup {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.fieldRetired
	for _, h := range s.rooms {
		if h.fb != nil && !h.fieldMerged {
			out.Merge(h.fb.Rollup())
		}
	}
	return out
}

// Gateway exposes the shard's field-bus gateway — the handle the daemon
// registers its modbus ingest input against. Nil unless FieldBus is set.
func (s *Shard) Gateway() *gateway.Gateway { return s.gw }

// SetIngestStats wires the heartbeat's ingest-pipeline sampler after
// construction — the daemon boots its ingest pipeline against the shard's
// gateway, which exists only once the shard does. Call before Start.
func (s *Shard) SetIngestStats(f func() ingest.Stats) {
	s.mu.Lock()
	s.cfg.IngestStats = f
	s.mu.Unlock()
}

// SetSchedCounters wires the heartbeat's batch-scheduler sampler after
// construction, for hosts that run a job scheduler alongside the shard's
// rooms. Call before Start.
func (s *Shard) SetSchedCounters(f func() scheduler.Counters) {
	s.mu.Lock()
	s.cfg.SchedCounters = f
	s.mu.Unlock()
}

// Statuses snapshots the hosted rooms' statuses.
func (s *Shard) Statuses() []RoomStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RoomStatus, 0, len(s.rooms))
	for _, h := range s.rooms {
		out = append(out, h.status)
	}
	return out
}

// FencedRooms reports how many assignments this shard has relinquished
// after coordinator fencing (room-level plus whole-lease).
func (s *Shard) FencedRooms() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fencedRooms
}

// Assign places a room on this shard at the given assignment epoch. It is
// idempotent for a repeated (room, epoch) and fenced (ErrFenced) for an
// epoch below the one already hosted. The room's store is opened under the
// shard's data root: if a previous host left durable state there — the
// shared-root failover path — the room recovers and resumes where that
// record ends.
func (s *Shard) Assign(room int, epoch uint64) (AssignResponse, error) {
	return s.assign(room, epoch, nil)
}

// assign is Assign plus the field-bus hand-off: startSeqs, when non-nil, is
// the predecessor poller's Seqs() token from a migration bundle, seeding
// this host's poller so the room's sequence stream continues without
// duplicates or double-counted gaps.
func (s *Shard) assign(room int, epoch uint64, startSeqs []uint64) (AssignResponse, error) {
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return AssignResponse{}, fmt.Errorf("controlplane: shard %s is stopped", s.cfg.ID)
	}
	if h, ok := s.rooms[room]; ok {
		defer s.mu.Unlock()
		if epoch < h.epoch {
			return AssignResponse{}, fmt.Errorf("assign room %d epoch %d < hosted %d: %w", room, epoch, h.epoch, ErrFenced)
		}
		// Same or newer epoch for a room already here: adopt the epoch and
		// report current progress — the idempotent replay of a lost response.
		h.epoch = epoch
		h.status.Epoch = epoch
		return AssignResponse{Step: h.status.Step, Recovered: h.recovered}, nil
	}
	s.mu.Unlock()

	cfg := s.cfg.Fleet
	cfg.DataDir = s.cfg.DataDir
	q := cfg.NewQueue()

	h := &roomHost{
		room:     room,
		epoch:    epoch,
		q:        q,
		stop:     make(chan struct{}),
		kill:     make(chan struct{}),
		loopDone: make(chan struct{}),
		ingStop:  make(chan struct{}),
		ingDone:  make(chan struct{}),
	}
	if s.gw != nil {
		// The hooks close over h; h.fb is installed below, after the runner
		// exists (the bridge needs the plant), and before any loop goroutine
		// starts. Warmup and recovery replay never actuate, so late-binding
		// the bus is safe.
		cfg.Actuate = func(_ int, spC float64) error { return h.fb.Actuate(spC) }
		cfg.Publish = func(_ int, smp testbed.Sample) { h.fb.Publish(smp) }
	}
	r, err := fleet.NewRunner(cfg, room, q, s.cfg.ID)
	if err != nil {
		return AssignResponse{}, err
	}
	h.runner = r
	h.recovered = r.Recovery().Recovered
	h.ing = telemetry.NewIngestor([]*telemetry.Queue{q}, cfg.ColdLimitC, cfg.Testbed.SamplePeriodS, cfg.Batch)
	if s.gw != nil {
		fb, err := gateway.AttachFieldBus(s.gw, cfg.RoomName(room), r.Plant(), gateway.PollerConfig{
			ColdLimitC: cfg.ColdLimitC,
			PeriodS:    cfg.Testbed.SamplePeriodS,
			Batch:      cfg.Batch,
			StartSeqs:  startSeqs,
		})
		if err != nil {
			r.Abandon()
			return AssignResponse{}, err
		}
		h.fb = fb
	}
	startStep, recovered := r.StepIndex(), r.Recovery().Recovered
	h.status = RoomStatus{Room: room, Epoch: epoch, Step: startStep, Planned: r.PlannedSteps()}

	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		r.Abandon()
		if h.fb != nil {
			h.fb.Close()
		}
		return AssignResponse{}, fmt.Errorf("controlplane: shard %s is stopped", s.cfg.ID)
	}
	if prev, ok := s.rooms[room]; ok {
		// Raced with a concurrent assign; keep the incumbent.
		s.mu.Unlock()
		r.Abandon()
		if h.fb != nil {
			h.fb.Close()
		}
		return AssignResponse{Step: prev.status.Step, Recovered: prev.recovered}, nil
	}
	s.rooms[room] = h
	s.mu.Unlock()

	go h.ingestLoop(s.cfg.Fleet.IngestEvery)
	go s.roomLoop(h)
	return AssignResponse{Step: startStep, Recovered: recovered}, nil
}

func (h *roomHost) ingestLoop(every time.Duration) {
	defer close(h.ingDone)
	if every <= 0 {
		every = 200 * time.Microsecond
	}
	h.ing.Run(h.ingStop, every)
}

// roomLoop drives one hosted room to completion, publishing progress under
// the shard lock after every step. On stop it exits at a step boundary and
// leaves draining to the requester; on kill it exits immediately.
func (s *Shard) roomLoop(h *roomHost) {
	defer close(h.loopDone)
	for !h.runner.Done() {
		select {
		case <-h.stop:
			return
		case <-h.kill:
			return
		default:
		}
		err := h.runner.Step()
		s.mu.Lock()
		if err != nil {
			h.state = hostFailed
			h.err = err
			h.status.Error = err.Error()
			s.mu.Unlock()
			return
		}
		h.status.Step = h.runner.StepIndex()
		s.mu.Unlock()
		if d := s.cfg.StepDelay; d > 0 {
			select {
			case <-h.stop:
				return
			case <-h.kill:
				return
			case <-time.After(d):
			}
		}
	}
	res, err := h.runner.Finish()
	// Fold the room's remaining telemetry before reporting Done, so anyone
	// who observes a finished room also observes its complete rollup.
	h.ingOnce.Do(func() { close(h.ingStop) })
	<-h.ingDone
	s.closeFieldBus(h)
	s.mu.Lock()
	if err != nil {
		h.state = hostFailed
		h.err = err
		h.status.Error = err.Error()
	} else {
		h.state = hostDone
		h.result = &res
		h.status.Done = true
		h.status.Result = &res
	}
	s.mu.Unlock()
}

// Drain checkpoints a hosted room at its current step boundary, closes its
// store and removes it from this shard — the migration write barrier. For a
// room that already finished it reports the final step.
func (s *Shard) Drain(room int) (DrainResponse, error) {
	s.mu.Lock()
	h, ok := s.rooms[room]
	s.mu.Unlock()
	if !ok {
		return DrainResponse{}, fmt.Errorf("controlplane: shard %s does not host room %d", s.cfg.ID, room)
	}
	step := s.relinquish(h, false)
	return DrainResponse{Step: step, GatewaySeqs: h.relSeqs}, nil
}

// closeFieldBus tears down a host's field path and folds its final poll
// ledger into the shard's retired field rollup exactly once. Returns the
// hand-off token (nil when the host runs no field bus). Idempotent; every
// caller sees the same token.
func (s *Shard) closeFieldBus(h *roomHost) []uint64 {
	if h.fb == nil {
		return nil
	}
	seqs, roll := h.fb.Close()
	s.mu.Lock()
	if !h.fieldMerged {
		h.fieldMerged = true
		s.fieldRetired.Merge(roll)
	}
	s.mu.Unlock()
	return seqs
}

// relinquish stops a host's loop, checkpoints and closes its store, folds
// its telemetry into the retired rollup and drops it from the room map.
// Returns the step the room stopped at. A fenced relinquish — the
// coordinator already handed the room to a successor — keeps an unfinished
// room's telemetry out of the rollup, the accounting a killed host gets: the
// successor counts every step below its start as a sequence gap, so these
// samples would be counted twice. Idempotent: a concurrent second caller
// (heartbeat fencing racing a drain RPC) blocks until the first finishes and
// gets the same step.
func (s *Shard) relinquish(h *roomHost, fenced bool) int {
	h.relOnce.Do(func() {
		h.stopOnce.Do(func() { close(h.stop) })
		<-h.loopDone
		h.ingOnce.Do(func() { close(h.ingStop) })
		<-h.ingDone
		// The loop has exited: flush and close the field path, capturing the
		// hand-off token the drain response carries to the migration target.
		h.relSeqs = s.closeFieldBus(h)

		step := h.runner.StepIndex()
		s.mu.Lock()
		finished := h.state == hostDone || h.state == hostFailed
		s.mu.Unlock()
		if !finished {
			if n, err := h.runner.Drain(); err == nil {
				step = n
			}
		}
		s.mu.Lock()
		if finished || !fenced {
			s.retired.Merge(h.ing.Rollup())
		}
		delete(s.rooms, h.room)
		s.mu.Unlock()
		h.relStep = step
	})
	return h.relStep
}

// Resume installs a migration bundle into this shard's data root and hosts
// the room. The bundle lands in the room's store directory before the
// runner opens it, so recovery replays the shipped state and the room
// continues at the source's drain barrier.
func (s *Shard) Resume(req ResumeRequest) (ResumeResponse, error) {
	s.mu.Lock()
	if h, ok := s.rooms[req.Room]; ok {
		step, hosted := h.status.Step, h.epoch
		s.mu.Unlock()
		if req.Epoch < hosted {
			return ResumeResponse{}, fmt.Errorf("resume room %d: %w", req.Room, ErrFenced)
		}
		return ResumeResponse{Step: step}, nil // idempotent replay
	}
	s.mu.Unlock()
	dir := filepath.Join(s.cfg.DataDir, s.cfg.Fleet.RoomName(req.Room))
	if err := UnpackBundle(dir, req.Bundle); err != nil {
		return ResumeResponse{}, err
	}
	ar, err := s.assign(req.Room, req.Epoch, req.Bundle.GatewaySeqs)
	if err != nil {
		return ResumeResponse{}, err
	}
	if ar.Step != req.Bundle.Step {
		// The shipped store did not reproduce the barrier — refuse to run a
		// room whose continuation point moved.
		_, _ = s.Drain(req.Room)
		return ResumeResponse{}, fmt.Errorf("controlplane: resume room %d at step %d, bundle barrier %d", req.Room, ar.Step, req.Bundle.Step)
	}
	return ResumeResponse{Step: ar.Step}, nil
}

// PackRoom packs a drained room's store directory for shipment. The room
// must not be hosted here any more (Drain first).
func (s *Shard) PackRoom(room int) (Bundle, error) {
	s.mu.Lock()
	_, hosted := s.rooms[room]
	s.mu.Unlock()
	if hosted {
		return Bundle{}, fmt.Errorf("controlplane: room %d still hosted; drain before packing", room)
	}
	name := s.cfg.Fleet.RoomName(room)
	// The barrier step travels in the drain response; the bundle re-derives
	// it on unpack via recovery, so 0 here is a placeholder the coordinator
	// overwrites with the drained step.
	return PackBundle(filepath.Join(s.cfg.DataDir, name), room, name, 0)
}

// heartbeatLoop registers with the coordinator (retrying forever — the
// shard is useful without it) and then renews the lease every
// HeartbeatEvery, carrying room statuses and the shard rollup. A fenced
// beat means the coordinator declared this shard dead and moved its rooms:
// the shard drains everything it still hosts and re-registers as a fresh
// worker.
func (s *Shard) heartbeatLoop() {
	defer s.wg.Done()
	if !s.register() {
		return
	}
	t := time.NewTicker(s.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.mu.Lock()
		paused := s.paused
		s.mu.Unlock()
		if paused {
			continue
		}
		if !s.beat() {
			return
		}
	}
}

// register announces the shard until it succeeds or the shard stops.
// Returns false when stopped.
func (s *Shard) register() bool {
	for {
		var resp RegisterResponse
		err := s.client.Call(context.Background(), http.MethodPost, "/register",
			RegisterRequest{ID: s.cfg.ID, Addr: s.cfg.Advertise}, &resp)
		if err == nil {
			s.mu.Lock()
			s.lease = resp.Epoch
			s.mu.Unlock()
			return true
		}
		s.mu.Lock()
		s.beatFailures++
		s.mu.Unlock()
		select {
		case <-s.stop:
			return false
		case <-time.After(s.cfg.HeartbeatEvery):
		}
	}
}

// beat sends one heartbeat and applies the coordinator's fencing verdicts.
// Returns false when the shard stopped.
func (s *Shard) beat() bool {
	s.mu.Lock()
	req := HeartbeatRequest{ID: s.cfg.ID, Epoch: s.lease}
	for _, h := range s.rooms {
		st := h.status
		req.Rooms = append(req.Rooms, st)
	}
	gwStats, ingStats, schedStats := s.cfg.GatewayStats, s.cfg.IngestStats, s.cfg.SchedCounters
	s.mu.Unlock()
	req.Rollup = s.Rollup()
	if gwStats != nil {
		gs := gwStats()
		req.Gateway = &gs
	} else if s.gw != nil {
		gs := s.gw.Stats()
		req.Gateway = &gs
	}
	if ingStats != nil {
		is := ingStats()
		req.Ingest = &is
	}
	if s.gw != nil {
		fr := s.FieldRollup()
		req.Field = &fr
	}
	if schedStats != nil {
		sc := schedStats()
		req.Sched = &sc
	}

	var resp HeartbeatResponse
	err := s.client.Call(context.Background(), http.MethodPost, "/heartbeat", req, &resp)
	switch {
	case err == nil:
		for _, f := range resp.FencedRooms {
			s.mu.Lock()
			h, ok := s.rooms[f.Room]
			// Only the fenced epoch (or older) is relinquished — if the room
			// was re-assigned here at a newer epoch while the verdict was in
			// flight, that hosting is legitimate and stays.
			ok = ok && h.epoch <= f.Epoch
			if ok {
				s.fencedRooms++
			}
			s.mu.Unlock()
			if ok {
				// The room lives elsewhere now; checkpoint, close, release
				// the lock so the new owner can open the store.
				s.relinquish(h, true)
			}
		}
		return true
	case isFenced(err):
		// Whole lease fenced: the coordinator buried us and re-placed our
		// rooms. Stop writing, release everything, come back as new.
		s.mu.Lock()
		s.leaseFences++
		hosts := make([]*roomHost, 0, len(s.rooms))
		for _, h := range s.rooms {
			hosts = append(hosts, h)
			s.fencedRooms++
		}
		s.mu.Unlock()
		for _, h := range hosts {
			s.relinquish(h, true)
		}
		return s.register()
	default:
		s.mu.Lock()
		s.beatFailures++
		s.mu.Unlock()
		return true // coordinator unreachable: keep stepping, keep trying
	}
}

func isFenced(err error) bool { return errors.Is(err, ErrFenced) }

// --- HTTP handlers ---

func (s *Shard) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.rooms)
	lease := s.lease
	s.mu.Unlock()
	writeJSON(w, r, nil, http.StatusOK, map[string]any{
		"id": s.cfg.ID, "rooms": n, "lease_epoch": lease,
	})
}

func (s *Shard) handleRooms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, nil, http.StatusOK, s.Statuses())
}

func (s *Shard) handleAssign(w http.ResponseWriter, r *http.Request) {
	if s.idem.replay(w, r.Header.Get(idemHeader)) {
		return
	}
	var req AssignRequest
	if !decodeBody(w, r, s.idem, &req) {
		return
	}
	resp, err := s.Assign(req.Room, req.Epoch)
	if err != nil {
		writeError(w, r, s.idem, statusFor(err), "%v", err)
		return
	}
	writeJSON(w, r, s.idem, http.StatusOK, resp)
}

func (s *Shard) handleDrain(w http.ResponseWriter, r *http.Request) {
	if s.idem.replay(w, r.Header.Get(idemHeader)) {
		return
	}
	var req DrainRequest
	if !decodeBody(w, r, s.idem, &req) {
		return
	}
	resp, err := s.Drain(req.Room)
	if err != nil {
		writeError(w, r, s.idem, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, r, s.idem, http.StatusOK, resp)
}

func (s *Shard) handleBundle(w http.ResponseWriter, r *http.Request) {
	room, err := strconv.Atoi(r.URL.Query().Get("room"))
	if err != nil {
		writeError(w, r, nil, http.StatusBadRequest, "bad room: %v", err)
		return
	}
	b, err := s.PackRoom(room)
	if err != nil {
		writeError(w, r, nil, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, r, nil, http.StatusOK, b)
}

func (s *Shard) handleResume(w http.ResponseWriter, r *http.Request) {
	if s.idem.replay(w, r.Header.Get(idemHeader)) {
		return
	}
	var req ResumeRequest
	if !decodeBody(w, r, s.idem, &req) {
		return
	}
	resp, err := s.Resume(req)
	if err != nil {
		writeError(w, r, s.idem, statusFor(err), "%v", err)
		return
	}
	writeJSON(w, r, s.idem, http.StatusOK, resp)
}

func (s *Shard) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	ru := s.Rollup()
	s.mu.Lock()
	rooms, fenced, fails := len(s.rooms), s.fencedRooms, s.beatFailures
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# TYPE tesla_shard_rooms gauge\ntesla_shard_rooms{shard=%q} %d\n", s.cfg.ID, rooms)
	fmt.Fprintf(w, "# TYPE tesla_shard_samples_ingested_total counter\ntesla_shard_samples_ingested_total{shard=%q} %d\n", s.cfg.ID, ru.Samples)
	fmt.Fprintf(w, "# TYPE tesla_shard_seq_gaps_total counter\ntesla_shard_seq_gaps_total{shard=%q} %d\n", s.cfg.ID, ru.Gaps)
	fmt.Fprintf(w, "# TYPE tesla_shard_fenced_rooms_total counter\ntesla_shard_fenced_rooms_total{shard=%q} %d\n", s.cfg.ID, fenced)
	fmt.Fprintf(w, "# TYPE tesla_shard_heartbeat_failures_total counter\ntesla_shard_heartbeat_failures_total{shard=%q} %d\n", s.cfg.ID, fails)
	if s.gw != nil {
		gateway.WriteMetrics(w, fmt.Sprintf("{shard=%q}", s.cfg.ID), s.gw.Stats())
		fr := s.FieldRollup()
		fmt.Fprintf(w, "# TYPE tesla_shard_field_samples_total counter\ntesla_shard_field_samples_total{shard=%q} %d\n", s.cfg.ID, fr.Samples)
		fmt.Fprintf(w, "# TYPE tesla_shard_field_seq_gaps_total counter\ntesla_shard_field_seq_gaps_total{shard=%q} %d\n", s.cfg.ID, fr.Gaps)
	}
}

func statusFor(err error) int {
	if isFenced(err) {
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

func decodeBody(w http.ResponseWriter, r *http.Request, ic *idemCache, v any) bool {
	if err := jsonDecode(r, v); err != nil {
		writeError(w, r, ic, http.StatusBadRequest, "decode: %v", err)
		return false
	}
	return true
}
