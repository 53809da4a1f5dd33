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
	"tesla/internal/telemetry"
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
	// FieldBus puts a real Modbus field path under every hosted room (see
	// HostConfig.FieldBus). Live migration carries each room's
	// Poller.Seqs() hand-off token in the bundle, so the successor's poller
	// continues the sequence stream with every number accounted exactly
	// once across both hosts' ledgers.
	FieldBus bool
}

// Shard hosts a subset of the fleet's rooms on a Host. It exposes an
// internal HTTP API (Handler) for the coordinator and keeps stepping its
// rooms whether or not the coordinator is reachable — the control plane can
// place and move rooms, but control itself never waits on it.
type Shard struct {
	cfg  ShardConfig
	host *Host

	mu          sync.Mutex
	lease       uint64
	killed      bool
	paused      bool // heartbeats suppressed (zombie simulation)
	ingestStats func() ingest.Stats

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
	fcfg := cfg.Fleet
	fcfg.DataDir = cfg.DataDir
	s := &Shard{
		cfg:  cfg,
		host: NewHost(HostConfig{ID: cfg.ID, Fleet: fcfg, StepDelay: cfg.StepDelay, FieldBus: cfg.FieldBus}, nil),
		idem: newIdemCache(0),
		stop: make(chan struct{}),
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
func (s *Shard) Stop() { s.halt(func() { s.host.Close() }) }

// Kill simulates this shard dying mid-step (Host.Kill), and stops its
// heartbeats so the coordinator stages it through suspect to dead.
func (s *Shard) Kill() { s.halt(s.host.Kill) }

// halt stops the shard once: heartbeats end and stopRooms takes the rooms
// down.
func (s *Shard) halt(stopRooms func()) {
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return
	}
	s.killed = true
	s.mu.Unlock()
	close(s.stop)
	stopRooms()
	s.wg.Wait()
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

// Rollup merges the ingest ledgers of every room this shard hosts or has
// hosted.
func (s *Shard) Rollup() telemetry.Rollup { return s.host.Rollup() }

// FieldRollup merges the field-bus poll ledgers of every room this shard
// hosts or has hosted. Zero when the shard runs no field bus.
func (s *Shard) FieldRollup() telemetry.Rollup { return s.host.FieldRollup() }

// Gateway exposes the shard's field-bus gateway — the handle the daemon
// registers its modbus ingest input against. Nil unless FieldBus is set.
func (s *Shard) Gateway() *gateway.Gateway { return s.host.Gateway() }

// SetIngestStats wires the heartbeat's ingest-pipeline sampler after
// construction — the daemon boots its ingest pipeline against the shard's
// gateway, which exists only once the shard does. Call before Start.
func (s *Shard) SetIngestStats(f func() ingest.Stats) {
	s.mu.Lock()
	s.ingestStats = f
	s.mu.Unlock()
}

// Statuses snapshots the hosted rooms' statuses.
func (s *Shard) Statuses() []RoomStatus { return s.host.Statuses() }

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
	return s.host.Add(room, epoch, nil)
}

// Drain checkpoints a hosted room at its current step boundary, closes its
// store and removes it from this shard — the migration write barrier. For a
// room that already finished it reports the final step.
func (s *Shard) Drain(room int) (DrainResponse, error) {
	return s.host.Relinquish(room, false)
}

// Resume installs a migration bundle into this shard's data root and hosts
// the room. The bundle lands in the room's store directory before the
// runner opens it, so recovery replays the shipped state and the room
// continues at the source's drain barrier.
func (s *Shard) Resume(req ResumeRequest) (ResumeResponse, error) {
	if st, ok := s.host.Status(req.Room); ok {
		if req.Epoch < st.Epoch {
			return ResumeResponse{}, fmt.Errorf("resume room %d: %w", req.Room, ErrFenced)
		}
		return ResumeResponse{Step: st.Step}, nil // idempotent replay
	}
	dir := filepath.Join(s.cfg.DataDir, s.cfg.Fleet.RoomName(req.Room))
	if err := UnpackBundle(dir, req.Bundle); err != nil {
		return ResumeResponse{}, err
	}
	ar, err := s.host.Add(req.Room, req.Epoch, &DrainResponse{Step: req.Bundle.Step, GatewaySeqs: req.Bundle.GatewaySeqs})
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
	if _, hosted := s.host.Status(room); hosted {
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
	ingStats := s.ingestStats
	s.mu.Unlock()
	req.Rooms = s.host.Statuses()
	req.Rollup = s.host.Rollup()
	if gw := s.host.Gateway(); gw != nil {
		gs := gw.Stats()
		req.Gateway = &gs
		fr := s.host.FieldRollup()
		req.Field = &fr
	}
	if ingStats != nil {
		is := ingStats()
		req.Ingest = &is
	}

	var resp HeartbeatResponse
	err := s.client.Call(context.Background(), http.MethodPost, "/heartbeat", req, &resp)
	switch {
	case err == nil:
		for _, f := range resp.FencedRooms {
			// Only the fenced epoch (or older) is relinquished — if the room
			// was re-assigned here at a newer epoch while the verdict was in
			// flight, that hosting is legitimate and stays.
			if st, ok := s.host.Status(f.Room); ok && st.Epoch <= f.Epoch {
				s.mu.Lock()
				s.fencedRooms++
				s.mu.Unlock()
				// The room lives elsewhere now; checkpoint, close, release
				// the lock so the new owner can open the store.
				s.host.Relinquish(f.Room, true)
			}
		}
		return true
	case isFenced(err):
		// Whole lease fenced: the coordinator buried us and re-placed our
		// rooms. Stop writing, release everything, come back as new.
		sts := s.host.Statuses()
		s.mu.Lock()
		s.leaseFences++
		s.fencedRooms += uint64(len(sts))
		s.mu.Unlock()
		for _, st := range sts {
			s.host.Relinquish(st.Room, true)
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
	n := len(s.host.Statuses())
	s.mu.Lock()
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
	ru, rooms := s.host.Rollup(), len(s.host.Statuses())
	s.mu.Lock()
	fenced, fails := s.fencedRooms, s.beatFailures
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# TYPE tesla_shard_rooms gauge\ntesla_shard_rooms{shard=%q} %d\n", s.cfg.ID, rooms)
	fmt.Fprintf(w, "# TYPE tesla_shard_samples_ingested_total counter\ntesla_shard_samples_ingested_total{shard=%q} %d\n", s.cfg.ID, ru.Samples)
	fmt.Fprintf(w, "# TYPE tesla_shard_seq_gaps_total counter\ntesla_shard_seq_gaps_total{shard=%q} %d\n", s.cfg.ID, ru.Gaps)
	fmt.Fprintf(w, "# TYPE tesla_shard_fenced_rooms_total counter\ntesla_shard_fenced_rooms_total{shard=%q} %d\n", s.cfg.ID, fenced)
	fmt.Fprintf(w, "# TYPE tesla_shard_heartbeat_failures_total counter\ntesla_shard_heartbeat_failures_total{shard=%q} %d\n", s.cfg.ID, fails)
	if gw := s.host.Gateway(); gw != nil {
		gateway.WriteMetrics(w, fmt.Sprintf("{shard=%q}", s.cfg.ID), gw.Stats())
		fr := s.host.FieldRollup()
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
