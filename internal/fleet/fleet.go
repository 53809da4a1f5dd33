// Package fleet is the multi-room orchestrator: it runs N independent
// machine rooms — each with its own testbed, workload profile, control
// policy and thermal-safety supervisor — concurrently over the
// internal/parallel pool, feeding a telegraf-style ingestion pipeline of
// bounded per-room telemetry queues batched into fleet-wide rollups
// (internal/telemetry).
//
// Two contracts define the package:
//
// Determinism. Every per-room seed is derived from the fleet seed and the
// room's stream index via rng.SeedFor, and rooms share no mutable state, so
// a room's trajectory is bit-identical for any worker count and any set of
// sibling rooms — room 0 alone equals room 0 inside a 16-room fleet. (The
// ingestion rollup is the one deliberately wall-clock-dependent piece: it
// observes whatever reached the queues before eviction, and the drop
// counters account exactly for the remainder.)
//
// Isolation. A room's control loop never blocks on anything outside the
// room: telemetry pushes are non-blocking (the bounded queue evicts and
// counts), faults are injected per room, and a slow device stalls only the
// worker running that room. Siblings complete every control step regardless
// of one room's quarantine storm, fault scenario or device latency.
package fleet

import (
	"fmt"
	"sort"
	"time"

	"tesla/internal/control"
	"tesla/internal/faults"
	"tesla/internal/parallel"
	"tesla/internal/rng"
	"tesla/internal/safety"
	"tesla/internal/telemetry"
	"tesla/internal/testbed"
	"tesla/internal/workload"
)

// PolicyFactory builds the control policy for one room. It is called
// concurrently from the worker pool, so it must be safe for concurrent use
// and must return a policy that depends only on (room, seed) — never on
// shared mutable state — to preserve the determinism contract.
type PolicyFactory func(room int, seed uint64) (control.Policy, error)

// RoomSpec describes one room of the fleet.
type RoomSpec struct {
	// Name labels the room in results and HTTP endpoints; empty defaults to
	// "room-<stream>".
	Name string
	// Stream is the rng.SeedFor substream this room derives every seed from.
	// Rooms in one fleet must use distinct streams. The zero value means
	// "use the room's index in Config.Rooms" — the common case; set it
	// explicitly to reproduce one room of a larger fleet in isolation.
	Stream uint64
	// Profile drives the room's cluster load. Required.
	Profile workload.Profile
	// Scenario optionally injects a deterministic fault schedule into this
	// room (and only this room).
	Scenario *faults.Scenario
	// StallPerStep simulates a slow device on this room's telemetry/command
	// path (a lagging Modbus endpoint): the room's loop sleeps this long
	// every control step. Wall-clock only — the simulated trajectory is
	// unaffected, which is exactly the isolation property worth testing.
	StallPerStep time.Duration

	// The remaining fields make fleets heterogeneous: each zero value keeps
	// the Config.Testbed template untouched, so existing configurations (and
	// their golden trajectory hashes) are unaffected.

	// Servers overrides the room's cluster size (0 = template, i.e. 21).
	Servers int
	// ACUCoolKW overrides the room ACU's peak cooling capacity in kW
	// (0 = template, i.e. 13): under-provisioned rooms saturate their
	// compressor under batch load — the thermally weak rooms a fleet
	// scheduler must route work away from.
	ACUCoolKW float64
	// ThermalMass scales the room's air/structure/rack heat capacitances
	// (0 or 1 = template): lighter rooms heat faster and give the cooling
	// loop less slack.
	ThermalMass float64
}

// Config assembles a fleet run.
type Config struct {
	// Testbed is the per-room plant template; each room overrides Seed with
	// its own substream.
	Testbed testbed.Config
	// Rooms lists the fleet members.
	Rooms []RoomSpec
	// Seed is the fleet master seed all per-room substreams derive from.
	Seed uint64
	// Workers bounds the worker pool (<= 0 selects GOMAXPROCS). Any value
	// yields bit-identical per-room results.
	Workers int

	// WarmupS runs each room under InitSpC before evaluation (recorded, so
	// policies have history; must cover at least one control step).
	WarmupS float64
	// EvalS is the controlled evaluation window per room.
	EvalS float64
	// InitSpC is the warm-up set-point.
	InitSpC float64
	// ColdLimitC is the ASHRAE cold-aisle limit (22 °C in the paper).
	ColdLimitC float64

	// QueueCap bounds each room's telemetry queue (<= 0 selects 512).
	QueueCap int
	// Batch bounds the ingestor's per-queue drain per sweep (<= 0 selects 64).
	Batch int
	// IngestEvery is the ingestor's sweep interval (<= 0 selects 200 µs).
	IngestEvery time.Duration

	// Safety overrides the supervisor configuration; nil derives the
	// deployment default from ColdLimitC and the ACU set-point range.
	Safety *safety.Config
	// NewPolicy builds each room's policy. Required.
	NewPolicy PolicyFactory

	// DataDir enables per-room durability: each room opens a WAL + snapshot
	// store under DataDir/<room-name>, recovers whatever a previous run left
	// there, and resumes the horizon where the durable record ends. Empty
	// disables durability (the previous behavior).
	DataDir string
	// SnapshotEvery checkpoints controller state every N evaluation steps
	// (<= 0 selects 64). Smaller bounds replay work on recovery; larger
	// spends less time encoding state.
	SnapshotEvery int
	// SyncEvery is the WAL fsync batch: 0 syncs every record (default,
	// strongest durability), n > 0 every n records, negative never.
	SyncEvery int

	// Quantize, when set, transforms every decided set-point before it is
	// applied, logged and hashed — on the live path AND during WAL replay.
	// It must be pure and idempotent (e.g. modbus.QuantizeTempC, the
	// centidegree register round-trip) so a recovered or migrated room
	// re-derives exactly the bits a gateway-actuated live run produced,
	// and so a reference run with the same Quantize is bit-identical to a
	// run actuated through the real field bus.
	Quantize func(spC float64) float64
	// Actuate, when set, replaces the direct testbed set-point write on
	// the LIVE path only: the host routes the (already quantized) command
	// through its field bus — gateway write → Modbus → device bridge —
	// and the bridge latches the value into the plant before the step
	// advances. Replay never actuates: recovery re-applies set-points
	// directly, which is bit-identical as long as Quantize matches the
	// field bus's rounding. An actuation error aborts the room's run.
	Actuate func(room int, spC float64) error
	// Publish, when set, observes every live sample right after the plant
	// advances — the field-bus refresh hook: the host updates its device
	// sim's input registers and runs its poll sweep here, one polled
	// sample per control step. Live-only, like Actuate; it must not
	// mutate the sample or the plant.
	Publish func(room int, s testbed.Sample)
}

// DefaultConfig returns a fleet of n heterogeneous healthy rooms (diurnal
// loads cycling medium/high/idle with per-room seeds) under the paper's
// 12-hour evaluation protocol.
func DefaultConfig(n int, seed uint64, newPolicy PolicyFactory) Config {
	return Config{
		Testbed:    testbed.DefaultConfig(),
		Rooms:      DiurnalSpecs(n, seed),
		Seed:       seed,
		WarmupS:    3600,
		EvalS:      43200,
		InitSpC:    23,
		ColdLimitC: 22,
		NewPolicy:  newPolicy,
	}
}

// DiurnalSpecs builds n healthy room specs with heterogeneous diurnal loads:
// room i cycles through medium/high/idle and draws its burst pattern from
// its own substream, so no two rooms see the same load trace.
func DiurnalSpecs(n int, seed uint64) []RoomSpec {
	loads := []workload.Setting{workload.Medium, workload.High, workload.Idle}
	specs := make([]RoomSpec, n)
	for i := range specs {
		specs[i] = RoomSpec{
			Name:    fmt.Sprintf("room-%d", i),
			Profile: workload.NewDiurnal(loads[i%len(loads)], 43200, rng.SeedFor(seed, profileStream(uint64(i)))),
		}
	}
	return specs
}

// Seed-substream layout: each room owns four substreams of the fleet seed,
// keyed by its stream index, so seeds never depend on the fleet size.
func testbedStream(stream uint64) uint64 { return 4 * stream }
func policyStream(stream uint64) uint64  { return 4*stream + 1 }
func profileStream(stream uint64) uint64 { return 4*stream + 2 }

// Validate reports unusable configurations.
func (c *Config) Validate() error {
	if len(c.Rooms) == 0 {
		return fmt.Errorf("fleet: no rooms")
	}
	if c.NewPolicy == nil {
		return fmt.Errorf("fleet: NewPolicy is required")
	}
	if c.Testbed.SamplePeriodS <= 0 {
		return fmt.Errorf("fleet: sample period must be positive")
	}
	if c.WarmupS < c.Testbed.SamplePeriodS {
		return fmt.Errorf("fleet: warm-up %gs must cover at least one control step (%gs)", c.WarmupS, c.Testbed.SamplePeriodS)
	}
	if c.EvalS < c.Testbed.SamplePeriodS {
		return fmt.Errorf("fleet: evaluation window %gs shorter than one control step", c.EvalS)
	}
	seen := make(map[uint64]int, len(c.Rooms))
	for i, spec := range c.Rooms {
		if spec.Profile == nil {
			return fmt.Errorf("fleet: room %d has no workload profile", i)
		}
		if spec.Servers < 0 {
			return fmt.Errorf("fleet: room %d server override %d must be non-negative", i, spec.Servers)
		}
		if spec.ACUCoolKW < 0 {
			return fmt.Errorf("fleet: room %d ACU capacity override %g must be non-negative", i, spec.ACUCoolKW)
		}
		if spec.ThermalMass < 0 {
			return fmt.Errorf("fleet: room %d thermal-mass scale %g must be non-negative", i, spec.ThermalMass)
		}
		s := c.streamOf(i)
		if prev, dup := seen[s]; dup {
			return fmt.Errorf("fleet: rooms %d and %d share seed stream %d", prev, i, s)
		}
		seen[s] = i
		if spec.Scenario != nil {
			if err := spec.Scenario.Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// streamOf resolves a room's effective seed stream (zero value → index).
func (c *Config) streamOf(i int) uint64 {
	if c.Rooms[i].Stream != 0 {
		return c.Rooms[i].Stream
	}
	return uint64(i)
}

// nameOf resolves a room's display name.
func (c *Config) nameOf(i int) string {
	if c.Rooms[i].Name != "" {
		return c.Rooms[i].Name
	}
	return fmt.Sprintf("room-%d", c.streamOf(i))
}

// RoomName resolves room i's display name — also the room's store directory
// under DataDir, which is why hosts that manage room stores without a
// running room (the sharded control plane's migration path) need it.
func (c *Config) RoomName(i int) string { return c.nameOf(i) }

// NewQueue builds one room's telemetry queue at QueueCap — the one place the
// 512-sample default is resolved, for every host.
func (c *Config) NewQueue() *telemetry.Queue {
	if c.QueueCap > 0 {
		return telemetry.NewQueue(c.QueueCap)
	}
	return telemetry.NewQueue(512)
}

// RoomResult is one room's authoritative outcome, computed inside the room's
// own control loop (the ingestion rollup is the lossy observability view).
type RoomResult struct {
	Room   int    `json:"room"`
	Name   string `json:"name"`
	Stream uint64 `json:"stream"`

	PlannedSteps int `json:"planned_steps"`
	// Metrics.Steps == PlannedSteps unless the run errored.
	Metrics

	// TrajectoryHash is an FNV-1a digest of the executed set-points and the
	// delivered + ground-truth cold-aisle maxima at every evaluation step —
	// the bit-identity witness the determinism tests compare.
	TrajectoryHash uint64 `json:"trajectory_hash"`

	SafetyMax   safety.Level `json:"safety_max_level"`
	Degraded    bool         `json:"degraded"` // left LevelNormal at least once
	Escalations uint64       `json:"escalations"`
	Overrides   uint64       `json:"overrides"`
	Quarantines uint64       `json:"quarantines"`

	// QueueDropped counts this room's telemetry samples evicted under
	// backpressure — observability loss, never control loss.
	QueueDropped uint64 `json:"queue_dropped"`

	// Recovery reports what the room's durable store replayed on boot (zero
	// when durability is disabled or the store was fresh).
	Recovery RecoveryInfo `json:"recovery"`

	LatencyP50 time.Duration `json:"latency_p50_ns"`
	LatencyP99 time.Duration `json:"latency_p99_ns"`

	latencies []time.Duration
}

// LatencyStats summarize per-step wall latency across the whole fleet.
type LatencyStats struct {
	P50, P90, P99, Max time.Duration
}

// Result is one fleet run's outcome.
type Result struct {
	Rooms    []RoomResult        `json:"rooms"`
	Rollup   telemetry.Rollup    `json:"rollup"`
	RoomAggs []telemetry.RoomAgg `json:"room_aggs"`

	TotalSteps  int          `json:"total_steps"`
	WallSeconds float64      `json:"wall_seconds"`
	StepsPerSec float64      `json:"steps_per_sec"`
	Latency     LatencyStats `json:"latency"`
}

// String renders the run as a fixed-width operator table.
func (r *Result) String() string {
	var b []byte
	b = fmt.Appendf(b, "fleet: %d rooms × %d steps, %.1f steps/s (p50=%s p99=%s), rollup: %d ingested / %d dropped, maxCold=%.2f°C\n",
		len(r.Rooms), plannedOf(r), r.StepsPerSec, r.Latency.P50.Round(time.Microsecond), r.Latency.P99.Round(time.Microsecond),
		r.Rollup.Samples, r.Rollup.Dropped, r.Rollup.MaxColdC)
	b = fmt.Appendf(b, "  %-10s %6s %9s %7s %7s %8s %8s %-14s %5s %6s\n",
		"room", "steps", "CE(kWh)", "TSV(%)", "CI(%)", "true(%)", "maxCold", "max level", "esc", "drops")
	for _, rr := range r.Rooms {
		b = fmt.Appendf(b, "  %-10s %6d %9.2f %7.2f %7.2f %8.2f %8.2f %-14s %5d %6d\n",
			rr.Name, rr.Steps, rr.CEkWh, 100*rr.TSVFrac, 100*rr.CIFrac, 100*rr.TrueTSVFrac,
			rr.MaxCold, rr.SafetyMax, rr.Escalations, rr.QueueDropped)
	}
	return string(b)
}

func plannedOf(r *Result) int {
	if len(r.Rooms) == 0 {
		return 0
	}
	return r.Rooms[0].PlannedSteps
}

// Run executes the fleet: every room is a Runner — built, stepped to the end
// of its horizon and finished — fanned out over the worker pool while one
// ingestor goroutine drains the telemetry queues into the fleet rollup. It
// is the in-memory reference the other hosts compare against: no RPC, no
// field bus, no lockstep barrier. The per-room results are bit-identical for
// any Workers value; the rollup sees every sample that survived its bounded
// queue, with drops accounted.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	interval := cfg.IngestEvery
	if interval <= 0 {
		interval = 200 * time.Microsecond
	}

	queues := make([]*telemetry.Queue, len(cfg.Rooms))
	for i := range queues {
		queues[i] = cfg.NewQueue()
	}
	ing := telemetry.NewIngestor(queues, cfg.ColdLimitC, cfg.Testbed.SamplePeriodS, cfg.Batch)

	stop := make(chan struct{})
	var g parallel.Group
	g.Go(func() { ing.Run(stop, interval) })

	start := time.Now()
	rooms, err := parallel.MapErr(cfg.Workers, len(cfg.Rooms), func(i int) (RoomResult, error) {
		r, err := NewRunner(cfg, i, queues[i], "")
		if err != nil {
			return RoomResult{}, err
		}
		for !r.Done() {
			if err := r.Step(); err != nil {
				r.Abandon()
				return RoomResult{}, err
			}
		}
		return r.Finish()
	})
	wall := time.Since(start)
	close(stop)
	g.Wait()
	if err != nil {
		return nil, err
	}

	res := &Result{Rooms: rooms, Rollup: ing.Rollup(), RoomAggs: ing.RoomAggs(), WallSeconds: wall.Seconds()}
	var all []time.Duration
	for i := range res.Rooms {
		res.TotalSteps += res.Rooms[i].Steps
		all = append(all, res.Rooms[i].latencies...)
		res.Rooms[i].latencies = nil
	}
	if res.WallSeconds > 0 {
		res.StepsPerSec = float64(res.TotalSteps) / res.WallSeconds
	}
	res.Latency = ComputeLatencyStats(all)
	return res, nil
}

// ComputeLatencyStats computes percentiles over per-operation wall
// latencies (sorting d in place). Exported so other load harnesses — the
// gateway bench in particular — report quantiles with the same estimator
// the fleet orchestrator uses.
func ComputeLatencyStats(d []time.Duration) LatencyStats {
	if len(d) == 0 {
		return LatencyStats{}
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	pick := func(q float64) time.Duration {
		i := int(q*float64(len(d))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(d) {
			i = len(d) - 1
		}
		return d[i]
	}
	return LatencyStats{P50: pick(0.50), P90: pick(0.90), P99: pick(0.99), Max: d[len(d)-1]}
}
