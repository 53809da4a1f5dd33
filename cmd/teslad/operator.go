package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"tesla/internal/control"
	"tesla/internal/fleet"
	"tesla/internal/gateway"
	"tesla/internal/ingest"
	"tesla/internal/safety"
	"tesla/internal/scheduler"
	"tesla/internal/telemetry"
)

// roomStatus is one room's operator snapshot, refreshed from its
// fleet.Runner after every control step.
type roomStatus struct {
	Room          int     `json:"room"`
	Name          string  `json:"name"`
	StepMinutes   int     `json:"step_minutes"`
	SetpointC     float64 `json:"setpoint_c"`
	InletC        float64 `json:"inlet_c"`
	MaxColdC      float64 `json:"max_cold_c"`
	ACUDuty       float64 `json:"acu_duty"`
	ACUPowerKW    float64 `json:"acu_power_kw"`
	AvgServerKW   float64 `json:"avg_server_kw"`
	ITPowerKW     float64 `json:"it_power_kw"`
	EnergyKWh     float64 `json:"energy_kwh"`
	Violations    int     `json:"violation_minutes"`
	Interruptions int     `json:"interruption_minutes"`
	QueueDepth    int     `json:"queue_depth"` // batch jobs placed here (-scheduler)

	// Safety-supervisor view: current and peak fallback stage, cumulative
	// escalations, policy outputs replaced, probes currently quarantined.
	SafetyLevel        string `json:"safety_level"`
	SafetyMaxLevel     string `json:"safety_max_level"`
	SafetyEscalations  uint64 `json:"safety_escalations"`
	PolicyOverrides    uint64 `json:"policy_overrides"`
	QuarantinedSensors int    `json:"quarantined_sensors"`
	level              safety.Level

	// TESLA decision diagnostics, and the WAL + checkpoint view (zero-valued
	// without -datadir).
	PolicyDecisions          uint64    `json:"policy_decisions"`
	PolicyHistoryFallbacks   uint64    `json:"policy_history_fallbacks"`
	PolicyOptimizerFallbacks uint64    `json:"policy_optimizer_fallbacks"`
	Durability               durStatus `json:"durability"`
}

// durStatus is the durability block of a room's status.
type durStatus struct {
	Enabled        bool   `json:"enabled"`
	Recovered      bool   `json:"recovered"`
	RecoveredSteps int    `json:"recovered_steps"`
	ReplayedSteps  int    `json:"replayed_steps"`
	ReplayMism     int    `json:"replay_mismatches"`
	SnapshotStep   int    `json:"last_checkpoint_step"` // -1 before the first checkpoint
	WALRecords     uint64 `json:"wal_records"`
	WALBytes       uint64 `json:"wal_bytes"`
	WALSyncs       uint64 `json:"wal_syncs"`
	WALSegments    int    `json:"wal_segments"`
	Snapshots      uint64 `json:"snapshots_written"`
	LastSnapBytes  int64  `json:"last_snapshot_bytes"`
}

// observe snapshots a room from its Runner. Call it from the goroutine that
// steps the room (or, under -scheduler, between harness steps).
func observe(r *fleet.Runner) roomStatus {
	s, m, sup := r.LastSample(), r.Metrics(), r.Supervisor()
	sst := sup.Stats()
	var inlet float64
	for _, v := range s.ACUTemps {
		inlet += v
	}
	rs := roomStatus{
		Room: r.Room(), Name: r.Name(), StepMinutes: r.StepIndex(),
		SetpointC: s.SetpointC, InletC: inlet / float64(len(s.ACUTemps)), MaxColdC: s.MaxColdAisle,
		ACUDuty: s.ACUDuty, ACUPowerKW: s.ACUPowerKW, AvgServerKW: s.AvgServerKW, ITPowerKW: s.TotalIT,
		EnergyKWh: m.CEkWh, Violations: int(m.TSVFrac), Interruptions: int(m.CIFrac),
		SafetyLevel: sup.Level().String(), SafetyMaxLevel: sup.MaxLevel().String(),
		SafetyEscalations: sst.Escalations, PolicyOverrides: sst.Overrides,
		QuarantinedSensors: len(sup.Quarantined()), level: sup.Level(),
	}
	if ts, ok := sup.Inner().(*control.TESLA); ok {
		diag := ts.Diagnostics()
		rs.PolicyDecisions, rs.PolicyHistoryFallbacks, rs.PolicyOptimizerFallbacks =
			diag.Decisions, diag.HistoryFallbacks, diag.OptimizerFallbacks
	}
	if ss, ok := r.StoreStats(); ok {
		rec := r.Recovery()
		rs.Durability = durStatus{
			Enabled: true, Recovered: rec.Recovered, RecoveredSteps: rec.StepRecords,
			ReplayedSteps: rec.ReplayedSteps, ReplayMism: rec.DecisionMismatches,
			SnapshotStep: ss.LastStep, WALRecords: ss.Records, WALBytes: ss.Bytes, WALSyncs: ss.Syncs,
			WALSegments: ss.Segments, Snapshots: ss.Snapshots, LastSnapBytes: ss.LastBytes,
		}
	}
	return rs
}

// schedStatus is the batch scheduler's view (-scheduler only).
type schedStatus struct {
	Mode     string             `json:"scheduler_mode"`
	Counters scheduler.Counters `json:"sched"`
	Jobs     scheduler.JobStats `json:"jobs"`
}

// operator is teslad's one operator surface for every standalone mode: a
// fleet of rooms (one for single-room mode) whose loops publish snapshots
// that /status, /fleet, /rooms/{id}, /metrics and /healthz serve from
// arbitrary HTTP goroutines. Room loops only touch their own slot.
type operator struct {
	mu    sync.RWMutex
	rooms []roomStatus
	sched *schedStatus
	// watched[i] is set by room i's first watch; only the goroutine that
	// steps room i touches it.
	watched []bool

	events *telemetry.EventLog
	// Optional sources, wired before the endpoint starts serving.
	ing  ledger           // the rooms' ingest ledgers
	gw   *gateway.Gateway // the rooms' field-bus gateway
	pipe *ingest.Service  // -inputs pipeline

	// simNow is the lead room's sample clock (float64 bits): the ingest
	// pipeline's compaction clock, in the same time domain as the samples.
	simNow atomic.Uint64
}

// ledger is where the operator reads the rooms' ingest ledgers: the room
// host (controlplane.Host), or a bare telemetry.Ingestor.
type ledger interface {
	Rollup() telemetry.Rollup
	RoomAggs() []telemetry.RoomAgg
}

func newOperator(names []string) *operator {
	o := &operator{rooms: make([]roomStatus, len(names)), watched: make([]bool, len(names)), events: telemetry.NewEventLog(512)}
	for i, name := range names {
		o.rooms[i] = roomStatus{Room: i, Name: name,
			SafetyLevel: safety.LevelNormal.String(), SafetyMaxLevel: safety.LevelNormal.String()}
	}
	return o
}

// watch publishes room i's snapshot. Its first call for a room, made once
// recovery replay is over, also reports what the room recovered from its
// store and routes its safety events into the event log — so replayed
// escalations are not reported twice.
func (o *operator) watch(i int, r *fleet.Runner) {
	if !o.watched[i] {
		o.watched[i] = true
		if rec := r.Recovery(); rec.Recovered {
			fmt.Printf("teslad: %s recovered %d control steps (+%d warm-up records) from its store, checkpoint at step %d, %d replayed\n",
				r.Name(), rec.StepRecords, rec.WarmupRecords, rec.SnapshotStep, rec.ReplayedSteps)
		}
		name := r.Name()
		r.Supervisor().SetSink(func(e safety.Event) {
			detail := e.Detail
			if e.Sensor >= 0 {
				detail = fmt.Sprintf("sensor %d: %s", e.Sensor, e.Detail)
			}
			o.events.Append(telemetry.Entry{TimeS: e.TimeS, Kind: string(e.Kind), Detail: name + ": " + detail})
		})
	}
	o.publish(i, r)
}

// publish refreshes room i's snapshot from its Runner.
func (o *operator) publish(i int, r *fleet.Runner) {
	rs := observe(r)
	if i == 0 {
		o.simNow.Store(math.Float64bits(r.LastSample().TimeS))
	}
	o.update(i, func(st *roomStatus) { *st = rs })
}

// publishSched refreshes the scheduler view at a step barrier.
func (o *operator) publishSched(mode string, h *scheduler.Harness) {
	ss := &schedStatus{Mode: mode, Counters: h.Scheduler().Counters(), Jobs: h.Scheduler().Stats(h.Now())}
	o.mu.Lock()
	o.sched = ss
	o.mu.Unlock()
}

func (o *operator) update(i int, fn func(*roomStatus)) {
	o.mu.Lock()
	fn(&o.rooms[i])
	o.mu.Unlock()
}

// snapshot copies the room slots, with each room's queue depth read from
// the scheduler view. That view is replaced whole on every publish, never
// mutated, so it is shared as is.
func (o *operator) snapshot() ([]roomStatus, *schedStatus) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	rooms := append([]roomStatus(nil), o.rooms...)
	if o.sched != nil {
		for i := range rooms {
			rooms[i].QueueDepth = o.sched.Counters.RoomQueue[rooms[i].Name]
		}
	}
	return rooms, o.sched
}

// handleStatus serves /status and /fleet: the lead room's snapshot (the
// whole picture in single-room mode) at the top level, every room under
// "rooms", and whichever rollups this mode runs.
func (o *operator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	rooms, sched := o.snapshot()
	out := struct {
		roomStatus
		Rooms        []roomStatus        `json:"rooms"`
		Rollup       *telemetry.Rollup   `json:"rollup,omitempty"`
		RoomAggs     []telemetry.RoomAgg `json:"room_aggs,omitempty"`
		Gateway      *gateway.Stats      `json:"gateway,omitempty"`
		Ingest       *ingest.Stats       `json:"ingest,omitempty"`
		RecentEvents []telemetry.Entry   `json:"recent_events"`
		*schedStatus
	}{roomStatus: rooms[0], Rooms: rooms, RecentEvents: o.events.Recent(16), schedStatus: sched}
	if o.ing != nil {
		out.Rollup, out.RoomAggs = ptr(o.ing.Rollup()), o.ing.RoomAggs()
	}
	if o.gw != nil {
		out.Gateway = ptr(o.gw.Stats())
	}
	if o.pipe != nil {
		out.Ingest = ptr(o.pipe.Stats())
	}
	writeJSON(w, out)
}

// handleRoom serves one room's detail at /rooms/{id}.
func (o *operator) handleRoom(w http.ResponseWriter, r *http.Request) {
	idStr := strings.Trim(strings.TrimPrefix(r.URL.Path, "/rooms/"), "/")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad room id %q", idStr), http.StatusBadRequest)
		return
	}
	rooms, _ := o.snapshot()
	if id < 0 || id >= len(rooms) {
		http.Error(w, fmt.Sprintf("room %d not in fleet of %d", id, len(rooms)), http.StatusNotFound)
		return
	}
	out := struct {
		roomStatus
		Ingested *telemetry.RoomAgg `json:"ingested,omitempty"`
	}{roomStatus: rooms[id]}
	if o.ing != nil {
		for _, agg := range o.ing.RoomAggs() {
			if agg.Room == id {
				out.Ingested = &agg
			}
		}
	}
	writeJSON(w, out)
}

// handleHealthz is the readiness probe: 503 until every room has published
// a control step, so traffic only routes to a daemon whose whole fleet is live.
func (o *operator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	rooms, _ := o.snapshot()
	for _, rs := range rooms {
		if rs.StepMinutes == 0 {
			http.Error(w, fmt.Sprintf("room %s warming up", rs.Name), http.StatusServiceUnavailable)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

type series struct {
	name, kind string
	val        func(roomStatus) any
}

// leadSeries are the unlabeled room series, read from the lead room as
// /status's top level is.
var leadSeries = []series{
	{"tesla_setpoint_celsius", "gauge", func(r roomStatus) any { return r.SetpointC }},
	{"tesla_inlet_celsius", "gauge", func(r roomStatus) any { return r.InletC }},
	{"tesla_max_cold_aisle_celsius", "gauge", func(r roomStatus) any { return r.MaxColdC }},
	{"tesla_acu_power_kw", "gauge", func(r roomStatus) any { return r.ACUPowerKW }},
	{"tesla_cooling_energy_kwh", "counter", func(r roomStatus) any { return r.EnergyKWh }},
	{"tesla_violation_minutes", "counter", func(r roomStatus) any { return r.Violations }},
	{"tesla_interruption_minutes", "counter", func(r roomStatus) any { return r.Interruptions }},
	{"tesla_safety_level", "gauge", func(r roomStatus) any { return int(r.level) }},
	{"tesla_safety_escalations_total", "counter", func(r roomStatus) any { return r.SafetyEscalations }},
	{"tesla_policy_overrides_total", "counter", func(r roomStatus) any { return r.PolicyOverrides }},
	{"tesla_quarantined_sensors", "gauge", func(r roomStatus) any { return r.QuarantinedSensors }},
	{"tesla_policy_history_fallbacks_total", "counter", func(r roomStatus) any { return r.PolicyHistoryFallbacks }},
	{"tesla_policy_optimizer_fallbacks_total", "counter", func(r roomStatus) any { return r.PolicyOptimizerFallbacks }},
}

// durabilitySeries are the lead room's WAL + checkpoint series.
var durabilitySeries = []series{
	{"tesla_wal_records_total", "counter", func(r roomStatus) any { return r.Durability.WALRecords }},
	{"tesla_wal_bytes_total", "counter", func(r roomStatus) any { return r.Durability.WALBytes }},
	{"tesla_wal_syncs_total", "counter", func(r roomStatus) any { return r.Durability.WALSyncs }},
	{"tesla_wal_segments", "gauge", func(r roomStatus) any { return r.Durability.WALSegments }},
	{"tesla_snapshot_writes_total", "counter", func(r roomStatus) any { return r.Durability.Snapshots }},
	{"tesla_snapshot_last_step", "gauge", func(r roomStatus) any { return r.Durability.SnapshotStep }},
	{"tesla_snapshot_last_bytes", "gauge", func(r roomStatus) any { return r.Durability.LastSnapBytes }},
	{"tesla_recovered_steps", "gauge", func(r roomStatus) any { return r.Durability.RecoveredSteps }},
	{"tesla_replay_mismatches", "gauge", func(r roomStatus) any { return r.Durability.ReplayMism }},
}

// roomSeries are exported once per room, labelled by room name.
var roomSeries = []series{
	{"tesla_room_setpoint_celsius", "gauge", func(r roomStatus) any { return r.SetpointC }},
	{"tesla_room_max_cold_aisle_celsius", "gauge", func(r roomStatus) any { return r.MaxColdC }},
	{"tesla_room_acu_duty", "gauge", func(r roomStatus) any { return r.ACUDuty }},
	{"tesla_room_it_power_kw", "gauge", func(r roomStatus) any { return r.ITPowerKW }},
	{"tesla_room_cooling_energy_kwh", "counter", func(r roomStatus) any { return r.EnergyKWh }},
	{"tesla_room_safety_level", "gauge", func(r roomStatus) any { return int(r.level) }},
	{"tesla_room_step_minutes", "counter", func(r roomStatus) any { return r.StepMinutes }},
}

func writeSeries(w io.Writer, ss []series, rooms []roomStatus, labelled bool) {
	for _, s := range ss {
		fmt.Fprintf(w, "# TYPE %s %s\n", s.name, s.kind)
		if !labelled {
			fmt.Fprintf(w, "%s %v\n", s.name, s.val(rooms[0]))
			continue
		}
		for _, rs := range rooms {
			fmt.Fprintf(w, "%s{room=%q} %v\n", s.name, rs.Name, s.val(rs))
		}
	}
}

// handleMetrics serves the Prometheus exposition: the lead room's series,
// every room's labelled series, and each subsystem this mode runs.
func (o *operator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	rooms, sched := o.snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	writeSeries(w, leadSeries, rooms, false)
	if rooms[0].Durability.Enabled {
		writeSeries(w, durabilitySeries, rooms, false)
	}
	writeSeries(w, roomSeries, rooms, true)
	if o.ing != nil {
		writeRollupMetrics(w, o.ing.Rollup())
	}
	if o.gw != nil {
		gateway.WriteMetrics(w, "", o.gw.Stats())
	}
	if o.pipe != nil {
		writeIngestMetrics(w, o.pipe.Stats())
	}
	if sched != nil {
		writeSchedMetrics(w, sched, rooms)
	}
	counts := o.events.Counts()
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "# TYPE tesla_safety_events_total counter\n")
	for _, k := range kinds {
		fmt.Fprintf(w, "tesla_safety_events_total{kind=%q} %d\n", k, counts[k])
	}
	fmt.Fprintf(w, "# TYPE tesla_events_dropped_total counter\ntesla_events_dropped_total %d\n", o.events.Dropped())
}

// writeRollupMetrics exposes the fleet telemetry rollup with its loss
// accounting (dropped samples, sequence gaps).
func writeRollupMetrics(w io.Writer, r telemetry.Rollup) {
	fmt.Fprintf(w, "# TYPE tesla_fleet_rooms gauge\ntesla_fleet_rooms %d\n", r.Rooms)
	fmt.Fprintf(w, "# TYPE tesla_fleet_samples_ingested_total counter\ntesla_fleet_samples_ingested_total %d\n", r.Samples)
	fmt.Fprintf(w, "# TYPE tesla_fleet_samples_dropped_total counter\ntesla_fleet_samples_dropped_total %d\n", r.Dropped)
	fmt.Fprintf(w, "# TYPE tesla_fleet_seq_gaps_total counter\ntesla_fleet_seq_gaps_total %d\n", r.Gaps)
	fmt.Fprintf(w, "# TYPE tesla_fleet_max_cold_aisle_celsius gauge\ntesla_fleet_max_cold_aisle_celsius %g\n", r.MaxColdC)
	fmt.Fprintf(w, "# TYPE tesla_fleet_cooling_power_kw gauge\ntesla_fleet_cooling_power_kw %g\n", r.TotalCoolingKW)
	fmt.Fprintf(w, "# TYPE tesla_fleet_cooling_energy_kwh counter\ntesla_fleet_cooling_energy_kwh %g\n", r.CoolingKWh)
	fmt.Fprintf(w, "# TYPE tesla_fleet_violation_minutes counter\ntesla_fleet_violation_minutes %d\n", r.ViolationMin)
	fmt.Fprintf(w, "# TYPE tesla_fleet_interruption_minutes counter\ntesla_fleet_interruption_minutes %d\n", r.InterruptionMin)
	fmt.Fprintf(w, "# TYPE tesla_fleet_safety_level_steps_total counter\n")
	for lvl, n := range r.SafetyLevels {
		fmt.Fprintf(w, "tesla_fleet_safety_level_steps_total{level=\"%d\"} %d\n", lvl, n)
	}
}

// writeSchedMetrics exposes the scheduler's placement/deferral/migration
// counters and its queue gauges, fleet-wide and per room. The two built-in
// migration reasons always appear (zero before any migration) so dashboards
// can rate() them from the start; extra reasons follow sorted.
func writeSchedMetrics(w io.Writer, ss *schedStatus, rooms []roomStatus) {
	c := ss.Counters
	fmt.Fprintf(w, "# TYPE tesla_sched_step_minutes counter\ntesla_sched_step_minutes %d\n", rooms[0].StepMinutes)
	fmt.Fprintf(w, "# TYPE tesla_sched_placements_total counter\ntesla_sched_placements_total %d\n", c.Placements)
	fmt.Fprintf(w, "# TYPE tesla_sched_deferrals_total counter\ntesla_sched_deferrals_total %d\n", c.Deferrals)
	fmt.Fprintf(w, "# TYPE tesla_sched_migrations_total counter\n")
	var extra []string
	for r := range c.Migrations {
		if r != scheduler.ReasonThermal && r != scheduler.ReasonCapacity {
			extra = append(extra, r)
		}
	}
	sort.Strings(extra)
	for _, r := range append([]string{scheduler.ReasonThermal, scheduler.ReasonCapacity}, extra...) {
		fmt.Fprintf(w, "tesla_sched_migrations_total{reason=%q} %d\n", r, c.Migrations[r])
	}
	fmt.Fprintf(w, "# TYPE tesla_sched_waiting_jobs gauge\ntesla_sched_waiting_jobs %d\n", c.Waiting)
	fmt.Fprintf(w, "# TYPE tesla_sched_running_jobs gauge\ntesla_sched_running_jobs %d\n", c.RunningJobs)
	fmt.Fprintf(w, "# TYPE tesla_sched_completed_jobs gauge\ntesla_sched_completed_jobs %d\n", c.CompletedJobs)
	fmt.Fprintf(w, "# TYPE tesla_sched_mean_wait_seconds gauge\ntesla_sched_mean_wait_seconds %g\n", ss.Jobs.MeanWaitS)
	fmt.Fprintf(w, "# TYPE tesla_sched_room_queue_depth gauge\n")
	for _, rs := range rooms {
		fmt.Fprintf(w, "tesla_sched_room_queue_depth{room=%q} %d\n", rs.Name, rs.QueueDepth)
	}
}

func ptr[T any](v T) *T { return &v }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
