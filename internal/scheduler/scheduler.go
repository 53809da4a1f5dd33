// Package scheduler is the fleet-level thermal-aware job placement layer:
// one global batch-job queue above N per-room cooling-control loops. Each
// fleet control step it decides, per job, WHICH room runs it (placement onto
// the room with the most cold-aisle headroom), WHEN deferrable work waits
// (deferral while no room has headroom — the fleet generalization of
// workload.DeferringScheduler's single-room signal — with a hard starvation
// bound), and when running batch load MIGRATES off a thermally stressed
// room onto one with slack. The cooling side stays with the per-room
// control.Policy; the scheduler shapes the heat those policies must chase —
// the co-optimization the paper's §8 names as TESLA's next step.
//
// Determinism: the scheduler itself is plain sequential code. It runs at the
// harness's step barrier, reads per-room states in room-index order, and
// mutates per-room orchestrators that no other goroutine touches between
// barriers. Given the same job list and the same per-room trajectories, its
// decisions are a pure function of step index — so the whole fleet stays
// bit-identical for any worker count.
package scheduler

import (
	"fmt"
	"sort"

	"tesla/internal/workload"
)

// Mode selects how much of the scheduler is active — the ablation axis of
// the fleet scheduling study.
type Mode int

const (
	// ModeNone places jobs immediately, round-robin over rooms — the
	// scheduler-less baseline every cell is scored against.
	ModeNone Mode = iota
	// ModeDefer keeps round-robin placement but defers deferrable work
	// while the target room lacks thermal headroom.
	ModeDefer
	// ModeFull adds headroom-greedy placement and migration of running
	// batch load off thermally stressed rooms.
	ModeFull
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeDefer:
		return "defer"
	case ModeFull:
		return "full"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode resolves a mode flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "none", "":
		return ModeNone, nil
	case "defer":
		return ModeDefer, nil
	case "full":
		return ModeFull, nil
	}
	return ModeNone, fmt.Errorf("scheduler: unknown mode %q (none|defer|full)", s)
}

// Migration reasons (the label values of
// tesla_sched_migrations_total{reason}).
const (
	// ReasonThermal: the source room's cold-aisle headroom collapsed.
	ReasonThermal = "thermal"
	// ReasonCapacity: the source room's ACU compressor is saturated.
	ReasonCapacity = "capacity"
)

// Job is one batch job in the fleet queue: the workload spec plus submission
// time and deferral policy.
type Job struct {
	Name string `json:"name"`
	// SubmitS is the submission time in seconds from evaluation start.
	SubmitS float64 `json:"submit_s"`
	// Level is the per-pod CPU utilization contribution, Parallelism the
	// pod count, DurationS the pod runtime (workload.Job semantics).
	Level       float64 `json:"level"`
	DurationS   float64 `json:"duration_s"`
	Parallelism int     `json:"parallelism"`
	// Deferrable jobs wait while the fleet is thermally stressed; others
	// place at submission.
	Deferrable bool `json:"deferrable"`
	// MaxDeferS bounds starvation: the job places unconditionally once it
	// has waited this long (0 = may wait forever).
	MaxDeferS float64 `json:"max_defer_s"`
}

// Validate reports malformed jobs.
func (j Job) Validate() error {
	if err := (workload.Job{Name: j.Name, Level: j.Level, DurationS: j.DurationS, Parallelism: j.Parallelism}).Validate(); err != nil {
		return err
	}
	if j.SubmitS < 0 {
		return fmt.Errorf("scheduler: job %q submit time %g must be non-negative", j.Name, j.SubmitS)
	}
	if j.MaxDeferS < 0 {
		return fmt.Errorf("scheduler: job %q max defer %g must be non-negative", j.Name, j.MaxDeferS)
	}
	return nil
}

// Config tunes the decision thresholds. The zero value is NOT usable; start
// from DefaultConfig.
type Config struct {
	Mode Mode `json:"mode"`
	// ColdLimitC is the cold-aisle limit headroom is measured against.
	ColdLimitC float64 `json:"cold_limit_c"`
	// AdmitHeadroomC is the minimum cold-aisle headroom a room must have to
	// admit deferrable work (the DeferringScheduler signal, per room).
	AdmitHeadroomC float64 `json:"admit_headroom_c"`
	// StressHeadroomC is the migration trigger: a room below it is
	// thermally stressed and sheds batch load.
	StressHeadroomC float64 `json:"stress_headroom_c"`
	// DutyMax marks a room's ACU as saturated: no placements, and running
	// batch load migrates away.
	DutyMax float64 `json:"duty_max"`
	// MigrateHeadroomC is the minimum headroom a migration TARGET must
	// have — deliberately above AdmitHeadroomC so jobs don't ping-pong.
	MigrateHeadroomC float64 `json:"migrate_headroom_c"`
	// CooldownSteps is the minimum number of fleet steps between two
	// migrations of the same job.
	CooldownSteps int `json:"cooldown_steps"`
	// HeadroomPerLevel debits a room's headroom estimate when a job lands
	// on it within one barrier (°C per unit of Level×Parallelism) — the
	// same conservative flood guard DeferringScheduler uses.
	HeadroomPerLevel float64 `json:"headroom_per_level"`
}

// DefaultConfig returns the deployment-default thresholds for a given mode.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:             mode,
		ColdLimitC:       22,
		AdmitHeadroomC:   1.0,
		StressHeadroomC:  0.25,
		DutyMax:          0.95,
		MigrateHeadroomC: 1.5,
		CooldownSteps:    10,
		HeadroomPerLevel: 0.2,
	}
}

// Validate reports unusable configurations.
func (c *Config) Validate() error {
	switch {
	case c.Mode < ModeNone || c.Mode > ModeFull:
		return fmt.Errorf("scheduler: unknown mode %d", c.Mode)
	case c.AdmitHeadroomC < 0 || c.StressHeadroomC < 0 || c.MigrateHeadroomC < 0:
		return fmt.Errorf("scheduler: headroom thresholds must be non-negative")
	case c.DutyMax <= 0 || c.DutyMax > 1:
		return fmt.Errorf("scheduler: duty ceiling %g outside (0,1]", c.DutyMax)
	case c.CooldownSteps < 0:
		return fmt.Errorf("scheduler: cooldown %d must be non-negative", c.CooldownSteps)
	case c.HeadroomPerLevel < 0:
		return fmt.Errorf("scheduler: headroom debit %g must be non-negative", c.HeadroomPerLevel)
	}
	return nil
}

// RoomState is one room's observation at the step barrier — derived from the
// room's delivered telemetry, which is exactly what a production scheduler
// would see.
type RoomState struct {
	// HeadroomC is ColdLimitC − max cold-aisle reading.
	HeadroomC float64
	// Duty is the ACU compressor duty in [0,1].
	Duty float64
	// ITPowerKW is the room's total IT power.
	ITPowerKW float64
}

// Counters is the scheduler's observability surface: placement/deferral/
// migration totals plus queue depths, mergeable across shards for the
// coordinator's fleet rollup.
type Counters struct {
	// Placements counts jobs bound to a room (initial placements only;
	// migrations count separately).
	Placements uint64 `json:"placements"`
	// Deferrals counts job-steps spent waiting: a job held back for five
	// fleet steps adds five.
	Deferrals uint64 `json:"deferrals"`
	// Migrations counts completed migrations by reason ("thermal",
	// "capacity").
	Migrations map[string]uint64 `json:"migrations,omitempty"`
	// Waiting is the current global queue depth (submitted, not yet
	// placed).
	Waiting int `json:"waiting"`
	// RoomQueue is the per-room queue depth, keyed by room name: waiting
	// jobs attributed to the room they would currently place on, plus jobs
	// running there.
	RoomQueue map[string]int `json:"room_queue,omitempty"`
	// RunningJobs and CompletedJobs count whole jobs (not pods).
	RunningJobs   int `json:"running_jobs"`
	CompletedJobs int `json:"completed_jobs"`
}

// Clone deep-copies the counters (maps included).
func (c Counters) Clone() Counters {
	out := c
	if c.Migrations != nil {
		out.Migrations = make(map[string]uint64, len(c.Migrations))
		for k, v := range c.Migrations {
			out.Migrations[k] = v
		}
	}
	if c.RoomQueue != nil {
		out.RoomQueue = make(map[string]int, len(c.RoomQueue))
		for k, v := range c.RoomQueue {
			out.RoomQueue[k] = v
		}
	}
	return out
}

// MigrationsTotal sums migrations across reasons.
func (c Counters) MigrationsTotal() uint64 {
	var t uint64
	for _, v := range c.Migrations {
		t += v
	}
	return t
}

// track is one job's lifecycle record.
type track struct {
	job Job
	seq int
	// submitAtS is the job's absolute submission time.
	submitAtS float64
	// placed is true once the job's pods are bound to a room.
	placed bool
	room   int
	// admitAtS / doneAtS are absolute placement and expected completion
	// times (doneAtS moves when the job migrates).
	admitAtS, doneAtS float64
	// deferSteps counts barriers this job spent waiting.
	deferSteps int
	// lastMoveStep is the fleet step of the last placement or migration.
	lastMoveStep int
	migrations   int
	done         bool
}

// Scheduler holds the fleet queue and drives per-room orchestrators. It is
// NOT safe for concurrent use: the harness calls it single-threaded at the
// step barrier.
type Scheduler struct {
	cfg   Config
	rooms []*workload.Orchestrator
	names []string

	tracks []*track
	seq    int

	counters Counters
}

// New wires the scheduler to one orchestrator per room. names label rooms in
// the per-room queue-depth counters.
func New(cfg Config, rooms []*workload.Orchestrator, names []string) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(rooms) == 0 {
		return nil, fmt.Errorf("scheduler: no rooms")
	}
	if len(names) != len(rooms) {
		return nil, fmt.Errorf("scheduler: %d names for %d rooms", len(names), len(rooms))
	}
	return &Scheduler{
		cfg:   cfg,
		rooms: rooms,
		names: names,
		counters: Counters{
			Migrations: map[string]uint64{},
			RoomQueue:  map[string]int{},
		},
	}, nil
}

// Submit queues a job; SubmitS here must already be in absolute simulation
// seconds (the harness converts from evaluation-relative time).
func (s *Scheduler) Submit(j Job, submitAtS float64) error {
	if err := j.Validate(); err != nil {
		return err
	}
	s.tracks = append(s.tracks, &track{job: j, seq: s.seq, submitAtS: submitAtS})
	s.seq++
	return nil
}

// eligible reports whether a room can accept new deferrable work given the
// current (debited) state estimates.
func (s *Scheduler) eligible(st *RoomState) bool {
	return st.HeadroomC >= s.cfg.AdmitHeadroomC && st.Duty <= s.cfg.DutyMax
}

// bestRoom returns the eligible room with the most headroom (ties to the
// lowest index), or -1 when no room is eligible.
func (s *Scheduler) bestRoom(states []RoomState, exclude int) int {
	best, bestHead := -1, -1e30
	for i := range states {
		if i == exclude || !s.eligible(&states[i]) {
			continue
		}
		if states[i].HeadroomC > bestHead {
			best, bestHead = i, states[i].HeadroomC
		}
	}
	return best
}

// coolestRoom is the unconditional fallback (starvation deadline, no
// eligible room): the room with the most headroom regardless of thresholds.
func coolestRoom(states []RoomState, exclude int) int {
	best, bestHead := -1, -1e30
	for i := range states {
		if i == exclude {
			continue
		}
		if states[i].HeadroomC > bestHead {
			best, bestHead = i, states[i].HeadroomC
		}
	}
	return best
}

// place binds a job's pods to room r with the given remaining duration and
// debits the room's state estimate.
func (s *Scheduler) place(t *track, r int, now, durS float64, states []RoomState) error {
	err := s.rooms[r].Submit(workload.Job{
		Name: t.job.Name, Level: t.job.Level, DurationS: durS, Parallelism: t.job.Parallelism,
	}, now)
	if err != nil {
		return fmt.Errorf("scheduler: placing job %q on %s: %w", t.job.Name, s.names[r], err)
	}
	t.placed, t.room = true, r
	t.doneAtS = now + durS
	states[r].HeadroomC -= s.cfg.HeadroomPerLevel * t.job.Level * float64(t.job.Parallelism)
	return nil
}

// Step runs one barrier's worth of decisions: reap completions, migrate off
// stressed rooms (ModeFull), then admit/place queued jobs in submission
// order. states must be indexed like the rooms slice; Step mutates the
// entries as it debits estimated headroom.
func (s *Scheduler) Step(step int, now float64, states []RoomState) error {
	if len(states) != len(s.rooms) {
		return fmt.Errorf("scheduler: %d states for %d rooms", len(states), len(s.rooms))
	}

	// Completions first: the orchestrators have already reaped pods whose
	// endsAt passed; mirror that in the job tracks.
	for _, t := range s.tracks {
		if t.placed && !t.done && now >= t.doneAtS {
			t.done = true
		}
	}

	// Migration pass (ModeFull): shed batch load from stressed rooms, in
	// admission order so the decision sequence is deterministic.
	if s.cfg.Mode == ModeFull {
		for _, t := range s.tracks {
			if !t.placed || t.done {
				continue
			}
			src := &states[t.room]
			stressed := src.HeadroomC < s.cfg.StressHeadroomC
			saturated := src.Duty > s.cfg.DutyMax
			if !stressed && !saturated {
				continue
			}
			if step-t.lastMoveStep < s.cfg.CooldownSteps {
				continue
			}
			// The target needs real slack — MigrateHeadroomC, above the
			// admission bar — or the job would bounce between rooms.
			dst, dstHead := -1, s.cfg.MigrateHeadroomC
			for i := range states {
				if i == t.room || states[i].Duty > s.cfg.DutyMax {
					continue
				}
				if states[i].HeadroomC >= dstHead {
					if dst == -1 || states[i].HeadroomC > states[dst].HeadroomC {
						dst = i
					}
				}
			}
			if dst < 0 {
				continue
			}
			pods, remainS := s.rooms[t.room].Evict(t.job.Name, now)
			if pods == 0 || remainS <= 0 {
				// The job finished between barriers; the completion pass
				// will catch it next step.
				continue
			}
			if err := s.place(t, dst, now, remainS, states); err != nil {
				return err
			}
			t.lastMoveStep = step
			t.migrations++
			reason := ReasonThermal
			if !stressed {
				reason = ReasonCapacity
			}
			s.counters.Migrations[reason]++
		}
	}

	// Admission/placement pass, in submission order (stable: seq breaks
	// ties).
	pending := make([]*track, 0, 8)
	for _, t := range s.tracks {
		if !t.placed && !t.done && now >= t.submitAtS-1e-9 {
			pending = append(pending, t)
		}
	}
	sort.Slice(pending, func(a, b int) bool { return pending[a].seq < pending[b].seq })

	clear(s.counters.RoomQueue)
	for _, t := range pending {
		overdue := t.job.MaxDeferS > 0 && now-t.submitAtS >= t.job.MaxDeferS

		var target int
		admit := true
		switch s.cfg.Mode {
		case ModeNone:
			// Scheduler-less baseline: round-robin by submission order,
			// placed the barrier it arrives.
			target = t.seq % len(s.rooms)
		case ModeDefer:
			// Placement stays naive; only the WHEN is controlled, per the
			// target room's own headroom.
			target = t.seq % len(s.rooms)
			if t.job.Deferrable && !overdue && !s.eligible(&states[target]) {
				admit = false
			}
		case ModeFull:
			target = s.bestRoom(states, -1)
			if target < 0 {
				if t.job.Deferrable && !overdue {
					admit = false
				} else {
					// Must run now: least-bad room.
					target = coolestRoom(states, -1)
				}
			} else if t.job.Deferrable && !overdue && states[target].HeadroomC < s.cfg.AdmitHeadroomC {
				admit = false
			}
		}

		if !admit {
			t.deferSteps++
			s.counters.Deferrals++
			name := s.names[t.seq%len(s.rooms)]
			if s.cfg.Mode == ModeFull {
				// Attribute the waiting job to the room it would land on
				// right now (the coolest one) for queue-depth telemetry.
				if r := coolestRoom(states, -1); r >= 0 {
					name = s.names[r]
				}
			}
			s.counters.RoomQueue[name]++
			continue
		}

		t.admitAtS = now
		t.lastMoveStep = step
		if err := s.place(t, target, now, t.job.DurationS, states); err != nil {
			return err
		}
		s.counters.Placements++
	}

	// Refresh the gauges.
	s.counters.Waiting = 0
	s.counters.RunningJobs = 0
	s.counters.CompletedJobs = 0
	for _, t := range s.tracks {
		switch {
		case t.done:
			s.counters.CompletedJobs++
		case t.placed:
			s.counters.RunningJobs++
			s.counters.RoomQueue[s.names[t.room]]++
		case now >= t.submitAtS-1e-9:
			s.counters.Waiting++
		}
	}
	return nil
}

// Counters snapshots the scheduler's counters (deep copy; safe to publish).
func (s *Scheduler) Counters() Counters { return s.counters.Clone() }

// JobStats summarize the fleet queue's outcome.
type JobStats struct {
	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	// MigratedJobs counts distinct jobs that moved at least once.
	MigratedJobs int `json:"migrated_jobs"`
	// MeanWaitS / MaxWaitS are queueing delays (placement − submission)
	// over placed jobs.
	MeanWaitS float64 `json:"mean_wait_s"`
	MaxWaitS  float64 `json:"max_wait_s"`
	// MeanLatencyS is completion − submission over completed jobs.
	MeanLatencyS float64 `json:"mean_latency_s"`
}

// Stats computes the job outcome as of time now.
func (s *Scheduler) Stats(now float64) JobStats {
	var st JobStats
	var waitN, latN int
	for _, t := range s.tracks {
		st.Submitted++
		if t.migrations > 0 {
			st.MigratedJobs++
		}
		if t.placed {
			w := t.admitAtS - t.submitAtS
			st.MeanWaitS += w
			if w > st.MaxWaitS {
				st.MaxWaitS = w
			}
			waitN++
		}
		if t.placed && now >= t.doneAtS {
			st.Completed++
			st.MeanLatencyS += t.doneAtS - t.submitAtS
			latN++
		}
	}
	if waitN > 0 {
		st.MeanWaitS /= float64(waitN)
	}
	if latN > 0 {
		st.MeanLatencyS /= float64(latN)
	}
	return st
}
