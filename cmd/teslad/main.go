// Command teslad is the TESLA deployment daemon: it runs the §4 control
// loop — telemetry in, a BO-chosen set-point out, latched on the ACU's
// Modbus register — for one machine room or a fleet, and serves live status
// and Prometheus-style metrics.
//
//	teslad -listen 127.0.0.1:8844 -load medium -minutes 120 [-speedup 0]
//	teslad -rooms 8 -minutes 120 [-seed 11] [-datadir /var/lib/teslad]
//	teslad -rooms 6 -scheduler full -policy modelfree -minutes 60
//	teslad -role coordinator -rooms 8 -seed 11 -listen 127.0.0.1:9000
//	teslad -role shard -id shard-a -datadir /var/lib/teslad/a \
//	       -coordinator http://127.0.0.1:9000 -listen 127.0.0.1:9001
//	teslad -inputs modbus,http=127.0.0.1:8086,subscribe=host:9200 ...
//
// Every standalone mode hosts fleet.Runners, the room loop the sharded
// control plane runs. Single-room mode is a fleet of one room under the
// -load diurnal profile; -rooms N runs N heterogeneous diurnal rooms. Plants
// and policies are seeded from per-room substreams of -seed, each room steps
// on its own goroutine, and each is actuated over a real Modbus field bus
// (an in-process ACU device sim per room behind one gateway, set-points
// quantized to the register's centidegrees). -speedup N paces the rooms at
// N× real time (0 = flat out); -minutes 0 runs until a signal. -policy
// tesla (default) and mpc train models at CI scale first; fixed and
// modelfree boot cold.
//
// -datadir makes every room durable: a WAL of every step under
// <datadir>/room-<i>, a controller checkpoint every -checkpoint steps and at
// shutdown, and on restart a replay through the real decide path that
// resumes bit-identically where the durable record ends. -walsync batches
// fsyncs (0 = every record, n = every n, negative = never).
//
// -scheduler none|defer|full runs the lockstep scheduled fleet instead: the
// scheduling study's room archetypes advance in lockstep while a batch
// scheduler places, defers and migrates jobs at every step barrier. It needs
// a finite -minutes and no -datadir.
//
// -role coordinator|shard runs the sharded control plane
// (internal/controlplane); every role must share -rooms, -seed, -minutes
// and -policy.
//
// -inputs attaches the ingest pipeline (internal/ingest): modbus[=measurement]
// sweeps the rooms' ACU devices, http[=addr] accepts line-protocol writes,
// subscribe=host:port[;...] consumes delta streams.
//
// SIGINT/SIGTERM stop every room at a step boundary, checkpoint and sync its
// store, and print the summary. Standalone endpoints:
//
//	GET /status, /fleet — room 0 at the top level, every room under "rooms",
//	                      plus this mode's rollup, gateway, ingest and
//	                      scheduler blocks
//	GET /rooms/{id}     — one room's detail
//	GET /metrics        — Prometheus text exposition
//	GET /healthz        — 503 until every room has published, then 200
//	GET /query, /series — the ingest store's read API (with -inputs)
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tesla"
	"tesla/internal/control"
	"tesla/internal/controlplane"
	"tesla/internal/experiment"
	"tesla/internal/fleet"
	"tesla/internal/parallel"
	"tesla/internal/scheduler"
	"tesla/internal/telemetry"
	"tesla/internal/testbed"
	"tesla/internal/workload"
)

// coldLimitC is the ASHRAE cold-aisle limit every room is supervised against.
const coldLimitC = 22

// foreverMinutes is the horizon -minutes 0 maps to: about two years of
// one-minute control steps.
const foreverMinutes = 1 << 20

// options carries the standalone flags.
type options struct {
	listen, load, policy, sched, inputs string
	rooms, minutes                      int
	speedup                             float64
	seed                                uint64
	dur                                 durOptions
	ingOpts                             ingestOptions
}

// durOptions carries the durability flags: -datadir, -checkpoint, -walsync.
type durOptions struct {
	dir         string
	every, sync int
}

func main() {
	listen := flag.String("listen", "127.0.0.1:8844", "operator HTTP endpoint")
	loadName := flag.String("load", "medium", "load setting: idle|medium|high (single-room mode)")
	minutes := flag.Int("minutes", 120, "control-loop duration in minutes (0 = forever)")
	speedup := flag.Float64("speedup", 0, "0 = run flat out; N = pace at N× real time")
	rooms := flag.Int("rooms", 1, "machine rooms to run; > 1 switches to fleet mode")
	seed := flag.Uint64("seed", 11, "master seed every room's plant, load and policy substreams derive from")
	policyName := flag.String("policy", "tesla", "room controller: tesla|fixed|mpc|modelfree")
	schedMode := flag.String("scheduler", "", "fleet batch scheduler: none|defer|full (empty disables; runs the lockstep scheduled fleet)")
	datadir := flag.String("datadir", "", "directory for the durable WAL + snapshot store (empty disables durability)")
	checkpoint := flag.Int("checkpoint", 15, "checkpoint controller state every N control steps")
	walsync := flag.Int("walsync", 0, "WAL fsync batch: 0 = every record, n = every n records, negative = never")
	role := flag.String("role", "", "control-plane role: coordinator|shard (empty = standalone daemon)")
	shardID := flag.String("id", "", "shard identity on the placement ring (-role shard)")
	coordURL := flag.String("coordinator", "", "coordinator base URL the shard registers with (-role shard; empty = autonomous)")
	advertise := flag.String("advertise", "", "base URL the coordinator dials this shard back on (default: the bound -listen address)")
	stepDelay := flag.Duration("stepdelay", 0, "pace each hosted room's loop by this much per control step (-role shard)")
	inputs := flag.String("inputs", "", "telemetry ingest inputs, comma-separated specs: modbus[=measurement], http[=addr], subscribe=host:port[;host:port...] (empty disables the ingest pipeline)")
	gatewayOn := flag.Bool("gateway", false, "run a Modbus field bus under every hosted room (-role shard): in-process ACU device sims actuated and polled through a per-shard gateway")
	gatherEvery := flag.Duration("gatherevery", time.Second, "ingest pipeline pull-input gather cadence")
	compactEvery := flag.Duration("compactevery", 5*time.Second, "ingest pipeline TSDB compaction cadence")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dur := durOptions{dir: *datadir, every: *checkpoint, sync: *walsync}
	ingOpts := ingestOptions{gatherEvery: *gatherEvery, compactEvery: *compactEvery}
	var err error
	if *role != "" {
		cp := cpOptions{role: *role, id: *shardID, coordinator: *coordURL, advertise: *advertise, stepDelay: *stepDelay, inputs: *inputs,
			gateway: *gatewayOn, ingOpts: ingOpts}
		err = runControlPlane(ctx, *listen, *rooms, *minutes, *seed, *policyName, dur, cp)
	} else {
		err = run(ctx, options{listen: *listen, load: *loadName, rooms: *rooms, minutes: *minutes, speedup: *speedup,
			seed: *seed, policy: *policyName, sched: *schedMode, dur: dur, inputs: *inputs, ingOpts: ingOpts})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "teslad:", err)
		os.Exit(1)
	}
}

// sleepCtx pauses for d unless the context is cancelled first; it reports
// whether the full pause elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// policyFactory maps -policy to a per-room controller factory. tesla and mpc
// need trained artifacts (one CI-scale Prepare shared across every room);
// fixed and modelfree boot cold, which is what makes them deployable on a
// fleet with no training pipeline attached.
func policyFactory(policyName string) (fleet.PolicyFactory, error) {
	switch policyName {
	case "tesla", "mpc":
		fmt.Println("teslad: training models (ci scale)...")
		sys, err := tesla.PrepareWithBaselines(tesla.ScaleCI, false)
		if err != nil {
			return nil, err
		}
		a := sys.Artifacts()
		if policyName == "mpc" {
			return func(room int, polSeed uint64) (control.Policy, error) {
				return a.NewMPCPolicy()
			}, nil
		}
		return func(room int, polSeed uint64) (control.Policy, error) {
			return a.NewTESLAPolicy(polSeed)
		}, nil
	case "fixed":
		return func(room int, polSeed uint64) (control.Policy, error) {
			return control.Fixed{SetpointC: 23}, nil
		}, nil
	case "modelfree":
		cfg := testbed.DefaultConfig()
		return func(room int, polSeed uint64) (control.Policy, error) {
			return experiment.NewModelFreePolicy(cfg.ACU.SetpointMinC, cfg.ACU.SetpointMaxC)
		}, nil
	}
	return nil, fmt.Errorf("unknown policy %q (want tesla, fixed, mpc or modelfree)", policyName)
}

// fleetConfig builds the fleet a run hosts (-minutes 0: the paper's 12-hour
// window). It is the contract every control-plane role must share: any shard
// can host any room, and the coordinator validates placements against it.
func fleetConfig(rooms, minutes int, seed uint64, policyName string, dur durOptions) (fleet.Config, error) {
	factory, err := policyFactory(policyName)
	if err != nil {
		return fleet.Config{}, err
	}
	cfg := fleet.DefaultConfig(rooms, seed, factory)
	if minutes > 0 {
		cfg.EvalS = float64(minutes) * 60
	}
	if dur.every > 0 {
		cfg.SnapshotEvery = dur.every
	}
	cfg.SyncEvery = dur.sync
	return cfg, nil
}

// run is the standalone daemon: single-room, -rooms N or -scheduler. Flag
// validation runs before the fleet config is built so a bad invocation
// fails fast instead of after model training.
func run(ctx context.Context, o options) error {
	var mode scheduler.Mode
	if o.sched != "" {
		var err error
		if mode, err = scheduler.ParseMode(o.sched); err != nil {
			return err
		}
		if o.minutes <= 0 {
			return fmt.Errorf("-scheduler needs a finite horizon: set -minutes > 0")
		}
		if o.dur.dir != "" {
			return fmt.Errorf("-scheduler does not support -datadir: the lockstep fleet is in-memory")
		}
	}
	load, ok := map[string]workload.Setting{"idle": workload.Idle, "medium": workload.Medium, "high": workload.High}[o.load]
	if !ok && o.rooms == 1 && o.sched == "" {
		return fmt.Errorf("unknown load %q", o.load)
	}
	cfg, err := fleetConfig(o.rooms, cmp.Or(o.minutes, foreverMinutes), o.seed, o.policy, o.dur)
	if err != nil {
		return err
	}
	cfg.DataDir = o.dur.dir
	switch {
	case o.sched != "":
		cfg.Rooms = experiment.TiledSpecs(o.rooms, o.seed)
		cfg.WarmupS = 600
	case o.rooms == 1:
		cfg.Rooms = []fleet.RoomSpec{{Name: "room-0", Profile: workload.NewDiurnal(load, 43200, 7)}}
	}
	names := make([]string, len(cfg.Rooms))
	for i := range names {
		names[i] = cfg.RoomName(i)
	}
	op := newOperator(names)
	var pace time.Duration
	if o.speedup > 0 {
		pace = time.Duration(cfg.Testbed.SamplePeriodS / o.speedup * float64(time.Second))
	}

	var h *controlplane.Host
	var harness *scheduler.Harness
	if o.sched != "" {
		harness, err = scheduler.NewHarness(scheduler.FleetConfig{
			Fleet: cfg, Sched: scheduler.DefaultConfig(mode), Jobs: experiment.ScaledSchedJobs(o.rooms, cfg.EvalS),
		})
		if err != nil {
			return err
		}
		defer harness.Abandon()
		for i := range names {
			op.watch(i, harness.Runner(i))
		}
	} else {
		h = newHost(cfg, pace, op.watch)
		defer h.Close() // every exit finishes or drains each room; a failed one stays as a crash leaves it
		op.ing, op.gw = h, h.Gateway()
		if _, err := addRooms(h, cfg); err != nil {
			return errors.Join(err, h.Close())
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/status", op.handleStatus)
	mux.HandleFunc("/fleet", op.handleStatus)
	mux.HandleFunc("/rooms/", op.handleRoom)
	mux.HandleFunc("/metrics", op.handleMetrics)
	mux.HandleFunc("/healthz", op.handleHealthz)
	if o.inputs != "" {
		// The compaction clock is the lead room's sample clock, not wall
		// time: samples are stamped in simulation seconds, and retention
		// cutoffs must live in the same domain.
		db := telemetry.NewDBWithRetention(telemetry.RetentionConfig{})
		simNow := func() float64 { return math.Float64frombits(op.simNow.Load()) }
		if op.pipe, err = startIngest(db, o.inputs, op.gw, cfg.ColdLimitC, cfg.Testbed.SamplePeriodS, simNow, o.ingOpts); err != nil {
			return fmt.Errorf("starting ingest pipeline: %w", err)
		}
		defer op.pipe.Stop()
		q := telemetry.QueryHandler(db)
		mux.Handle("/query", q)
		mux.Handle("/series", q)
		fmt.Printf("teslad: ingest pipeline running (%s)\n", o.inputs)
	}
	ln, srvErr, drain, err := serveHandler(o.listen, mux)
	if err != nil {
		return err
	}
	defer drain()
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	go func() {
		if err := <-srvErr; !errors.Is(err, http.ErrServerClosed) {
			cancel(fmt.Errorf("operator endpoint: %w", err))
		}
	}()
	fmt.Printf("teslad: %d room(s), policy %s, operator http://%s\n", len(names), o.policy, ln.Addr())

	if harness != nil {
		err = runScheduled(ctx, harness, op, mode, pace)
	} else {
		// A failed room ends the wait; Close then drains its siblings.
		err = errors.Join(h.Wait(ctx), h.Close())
		printRooms(op, o.dur.dir != "")
	}
	if cause := context.Cause(ctx); err == nil && cause != nil && !errors.Is(cause, context.Canceled) {
		err = cause
	}
	return err
}

// newHost builds the host standalone teslad runs its rooms on: each room
// stepped by its own goroutine, paced by pace between steps, and actuated
// over its own Modbus field bus on one shared gateway. Set-points are
// quantized to the register's centidegrees, so WAL replay re-derives
// exactly what the wire executed and every restart is the Runner's
// bit-identical recovery.
func newHost(cfg fleet.Config, pace time.Duration, onStep func(int, *fleet.Runner)) *controlplane.Host {
	// One sweep per room per millisecond, teslad's cadence before it ran
	// rooms on the Host; the 200 µs default costs idle CPU in every room.
	cfg.IngestEvery = time.Millisecond
	return controlplane.NewHost(controlplane.HostConfig{ID: "teslad", Fleet: cfg, StepDelay: pace, FieldBus: true}, onStep)
}

// addRooms adds every room of cfg to h at epoch 1, concurrently over
// cfg.Workers.
func addRooms(h *controlplane.Host, cfg fleet.Config) ([]controlplane.AssignResponse, error) {
	return parallel.MapErr(cfg.Workers, len(cfg.Rooms), func(i int) (controlplane.AssignResponse, error) {
		return h.Add(i, 1, nil)
	})
}

// runScheduled steps the lockstep scheduled fleet to its horizon, or
// abandons it on a signal (the lockstep fleet is in-memory).
func runScheduled(ctx context.Context, h *scheduler.Harness, op *operator, mode scheduler.Mode, pace time.Duration) error {
	for !h.Done() {
		if err := h.Step(); err != nil {
			return err
		}
		for i := range op.rooms {
			op.publish(i, h.Runner(i))
		}
		op.publishSched(mode.String(), h)
		if ctx.Err() != nil || (pace > 0 && !sleepCtx(ctx, pace)) {
			c := h.Scheduler().Counters()
			fmt.Printf("teslad: signal received, abandoning scheduled fleet: %d placements, %d deferrals, %d migrations, %d waiting\n",
				c.Placements, c.Deferrals, c.MigrationsTotal(), c.Waiting)
			return nil
		}
	}
	res, err := h.Finish()
	if err != nil {
		return err
	}
	fmt.Printf("teslad: scheduled fleet done: %d rooms × %d steps, %.2f kWh cooling, %.2f%% true TSV, joint %.2f\n",
		len(op.rooms), res.TotalSteps/len(op.rooms), res.CoolingKWh, 100*res.TrueTSVFrac, res.JointScore)
	fmt.Printf("teslad: scheduler: %d placements, %d deferrals, %d migrations; %d/%d jobs completed, mean wait %.0fs\n",
		res.Sched.Placements, res.Sched.Deferrals, res.Sched.MigrationsTotal(),
		res.Jobs.Completed, res.Jobs.Submitted, res.Jobs.MeanWaitS)
	return nil
}

// printRooms prints each room's final line once the host has finished or
// drained it.
func printRooms(op *operator, durable bool) {
	rooms, _ := op.snapshot()
	flushed := ""
	if durable {
		flushed = " (durable store flushed)"
	}
	for _, rs := range rooms {
		fmt.Printf("teslad: %s done after %d minutes%s, %.2f kWh, %d violation minutes, %d safety escalations (peak %s)\n",
			rs.Name, rs.StepMinutes, flushed, rs.EnergyKWh, rs.Violations, rs.SafetyEscalations, rs.SafetyMaxLevel)
	}
}
