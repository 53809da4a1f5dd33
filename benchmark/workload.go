package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"tesla/internal/control"
	"tesla/internal/experiment"
	"tesla/internal/fleet"
	"tesla/internal/gateway"
	"tesla/internal/modbus"
	"tesla/internal/telemetry"
	"tesla/internal/testbed"
)

// workload is one benchmark input: a shard hosting rooms of one policy over
// a fixed horizon, stepped in a closed loop, with a fixed crash schedule.
// Every room crashes right after executing each step k in crashAt, is
// recovered from its store and resumes at k+1. The replay depth of that
// recovery is (k+1) mod snapEvery: the steps since the last checkpoint.
type workload struct {
	name   string
	policy string // "tesla" or "modelfree"
	rooms  int
	steps  int // evaluation steps per room per episode
	// snapEvery is the checkpoint interval (fleet.Config.SnapshotEvery).
	snapEvery int
	// schedule gives the crash steps for a checkpoint interval and horizon,
	// so the smoke scale keeps each workload's crash pattern.
	schedule func(snapEvery, steps int) []int
	crashAt  []int // schedule(snapEvery, steps): each below steps-1, so a step remains to resume
}

// workloads lists the full-scale workloads in the order BENCHMARK.json
// names them (README.md says why each exists). Each episode takes about
// episodeSeconds on a 2-vCPU machine.
var workloads = []workload{
	// The headline step: Decide is ~94% of it. Crashes 1, 2 and 3 steps
	// after every checkpoint price recovery in three equal depth groups —
	// p50 in the middle of one, p90 inside the deepest — without replayed
	// Decides dominating the episode.
	{name: "tesla-wire", policy: "tesla", rooms: 4, steps: 360, snapEvery: 64,
		schedule: func(s, n int) []int { return afterCheckpoints(s, n, 3) }},
	// Shard density: Decide is negligible, so store, plant, gateway and
	// supervisor costs show. Two crashes per room in the second checkpoint
	// interval, one shallow and one deep: replay depths 8 and 48.
	{name: "shard-modelfree", policy: "modelfree", rooms: 256, steps: 140, snapEvery: 64,
		schedule: func(s, _ int) []int { return atDepths(s, s/8, 3*s/4) }},
	// Failover: a crash every 9th step spreads replay depth over 0..63, so
	// recovery (WAL scan, snapshot restore, replayed Decides) dominates.
	{name: "tesla-failover", policy: "tesla", rooms: 2, steps: 240, snapEvery: 64,
		schedule: func(s, n int) []int { return every(s, 9, n-1) }},
}

// episodeSeconds is the nominal length of one episode of any workload on a
// 2-vCPU machine; a run of s seconds is round(s / episodeSeconds) episodes.
const episodeSeconds = 10

// every returns from, from+by, … below until.
func every(from, by, until int) []int {
	var ks []int
	for k := from; k < until; k += by {
		ks = append(ks, k)
	}
	return ks
}

// afterCheckpoints returns the first depth steps after every checkpoint
// that leaves a step to resume.
func afterCheckpoints(snapEvery, steps, depth int) []int {
	var ks []int
	for c := snapEvery; c+depth < steps; c += snapEvery {
		for d := 0; d < depth; d++ {
			ks = append(ks, c+d)
		}
	}
	return ks
}

// atDepths returns the steps of the second checkpoint interval whose
// recovery replays the given number of steps.
func atDepths(snapEvery int, depths ...int) []int {
	var ks []int
	for _, d := range depths {
		ks = append(ks, snapEvery+d-1)
	}
	return ks
}

// smoke shrinks a workload to 2 rooms × 40 steps with checkpoints every 8
// steps, so every code path runs in about a second; the crash schedule is
// the workload's own at that size.
func (w workload) smoke() workload {
	w.rooms, w.steps, w.snapEvery = 2, 40, 8
	return w
}

func findWorkload(name, scale string) (workload, error) {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		switch scale {
		case "full":
		case "smoke":
			w = w.smoke()
		default:
			return w, fmt.Errorf("unknown scale %q (want full or smoke)", scale)
		}
		w.crashAt = w.schedule(w.snapEvery, w.steps)
		return w, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) crashesAfter(k int) bool { return slices.Contains(w.crashAt, k) }

// fieldBus is one hosted room's field path, wired the way a control-plane
// shard wires it: the plant's register bridge, an in-process Modbus/TCP
// device sim serving it, a device on the shared gateway dialing that sim,
// and a single-device poller run once per control step. It is a copy of
// controlplane's unexported fieldBus, so a change there does not reach the
// gateway spans here until that helper is exported and used instead.
type fieldBus struct {
	gw     *gateway.Gateway
	id     string
	bridge *modbus.ACUBridge
	srv    *modbus.Server
	dev    *gateway.Device
	poller *gateway.Poller
}

func attachBus(gw *gateway.Gateway, id string, tb *testbed.Testbed, pcfg gateway.PollerConfig) (*fieldBus, error) {
	bridge := modbus.NewACUBridge(tb)
	srv := modbus.NewServer(bridge.Bank)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("field bus %s: %w", id, err)
	}
	dev, err := gw.Add(id, addr)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("field bus %s: %w", id, err)
	}
	return &fieldBus{gw: gw, id: id, bridge: bridge, srv: srv, dev: dev,
		poller: gateway.NewPollerOver([]*gateway.Device{dev}, pcfg)}, nil
}

func (f *fieldBus) actuate(spC float64) error {
	return f.dev.WriteHolding(modbus.RegSetpoint, modbus.EncodeTempC(spC))
}

func (f *fieldBus) publish(s testbed.Sample) {
	f.bridge.Refresh(s)
	f.poller.PollOnce(s.TimeS)
	f.poller.DrainOnce()
}

// close drains the poller, takes its ledger down with the device and sim.
func (f *fieldBus) close() telemetry.Rollup {
	for f.poller.DrainOnce() > 0 {
	}
	roll := f.poller.Rollup()
	f.gw.Remove(f.id)
	f.srv.Close()
	return roll
}

// room is one hosted room. Worker w owns rooms i ≡ w (mod W), so a room's
// fields are only ever touched by one goroutine during the step phase.
type room struct {
	idx    int
	runner *fleet.Runner
	bus    *fieldBus
	rt     *roomTrace // nil in untraced episodes

	liveSteps     int    // Step calls that completed, resume steps included
	samples, gaps uint64 // field-bus ledger over every poller the room had
}

// host is one episode's shard: the rooms, their gateway and the telemetry
// ingestor, all built from the workload and seed.
type host struct {
	w       workload
	workers int
	cfg     fleet.Config
	gw      *gateway.Gateway
	queues  []*telemetry.Queue
	rooms   []*room
	tracer  *tracer // nil in untraced episodes
}

// episode is what one episode — a shard built, stepped to the end of its
// horizon and finished — measured and checked.
type episode struct {
	setup    time.Duration
	wall     time.Duration   // the step phase: every live step and recovery of every room
	steps    []time.Duration // untraced live Step calls (without checkpoint steps in a traced episode)
	traced   []time.Duration // traced live Step calls without checkpoint steps (odd passes of a traced episode)
	recovers []time.Duration // crashed store → NewRunner + attach + first Step

	results  []fleet.RoomResult
	hash     uint64
	attempts int
	failures []string
	arts     *experiment.Artifacts // the episode's trained models, TESLA workloads only

	live       int // Step calls that completed, resume steps included
	replayed   int // Σ RecoveryInfo.ReplayedSteps
	mismatches [2]int
	gateway    gateway.Stats
	samples    uint64
	gaps       uint64
	pushed     uint64
	dropped    uint64
	ingested   uint64
	storeBytes int64

	spans *spanAgg // traced episodes only
}

func (e *episode) check(ok bool, format string, args ...any) {
	e.attempts++
	if !ok {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
}

// runEpisode builds the shard (timed as set-up), steps every room to the end
// of its horizon with the crash schedule applied, finishes the rooms and
// checks every ledger. dir must not exist yet; it is removed afterwards.
func runEpisode(w workload, seed uint64, workers int, dir string, tr *tracer) (*episode, error) {
	ep := &episode{}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	if w.policy == "tesla" {
		var err error
		if ep.arts, err = experiment.Prepare(experiment.CIScale(), false); err != nil {
			return nil, err
		}
	}
	h := newHost(w, seed, workers, dir, ep.arts, tr)
	defer h.gw.Close()
	if err := h.build(); err != nil {
		h.abandon()
		return nil, err
	}
	ep.setup = time.Since(t0)

	ing := telemetry.NewIngestor(h.queues, h.cfg.ColdLimitC, h.cfg.Testbed.SamplePeriodS, h.cfg.Batch)
	stop := make(chan struct{})
	ingDone := make(chan struct{})
	go func() {
		defer close(ingDone)
		ing.Run(stop, h.cfg.IngestEvery)
	}()
	t1 := time.Now()
	stepErr := h.stepAll(ep)
	ep.wall = time.Since(t1)
	close(stop)
	<-ingDone
	if stepErr != nil {
		h.abandon()
		return nil, stepErr
	}
	if err := h.finish(ep); err != nil {
		return nil, err
	}
	ep.gateway = h.gw.Stats()
	for _, q := range h.queues {
		p, d := q.Stats()
		ep.pushed += p
		ep.dropped += d
	}
	ep.ingested = ing.Rollup().Samples
	ep.storeBytes = dirBytes(dir)
	h.checkLedgers(ep)
	if tr != nil {
		ep.spans = &spanAgg{}
		for _, rm := range h.rooms {
			ep.spans.add(rm.rt.spans)
			ep.check(rm.rt.bad == 0, "room %d: %d spans out of order", rm.idx, rm.rt.bad)
		}
	}
	return ep, nil
}

func newHost(w workload, seed uint64, workers int, dir string, arts *experiment.Artifacts, tr *tracer) *host {
	h := &host{w: w, workers: workers, gw: gateway.New(gateway.Config{Seed: seed}), tracer: tr}
	cfg := fleet.DefaultConfig(w.rooms, seed, nil)
	cfg.WarmupS = 60 * cfg.Testbed.SamplePeriodS
	cfg.EvalS = float64(w.steps) * cfg.Testbed.SamplePeriodS
	cfg.DataDir = dir
	cfg.SyncEvery = 0
	cfg.SnapshotEvery = w.snapEvery
	cfg.Quantize = modbus.QuantizeTempC
	cfg.Actuate = func(i int, spC float64) error {
		rm := h.rooms[i]
		if rm.rt == nil || !rm.rt.on {
			return rm.bus.actuate(spC)
		}
		t0 := rm.rt.now()
		err := rm.bus.actuate(spC)
		rm.rt.actIn, rm.rt.actOut = t0, rm.rt.now()
		return err
	}
	cfg.Publish = func(i int, s testbed.Sample) {
		rm := h.rooms[i]
		if rm.rt == nil || !rm.rt.on {
			rm.bus.publish(s)
			return
		}
		t0 := rm.rt.now()
		rm.bus.publish(s)
		rm.rt.pubIn, rm.rt.pubOut = t0, rm.rt.now()
	}
	tb := cfg.Testbed
	cfg.NewPolicy = func(i int, seed uint64) (control.Policy, error) {
		rt := h.rooms[i].rt
		var t0 int64
		if rt != nil {
			t0 = rt.now()
		}
		var p control.Policy
		var err error
		switch w.policy {
		case "tesla":
			p, err = arts.NewTESLAPolicy(seed)
		default:
			p, err = experiment.NewModelFreePolicy(tb.ACU.SetpointMinC, tb.ACU.SetpointMaxC)
		}
		if err != nil || rt == nil {
			return p, err
		}
		p = rt.wrap(p)
		rt.child(spBuild, t0, rt.now())
		return p, nil
	}
	h.cfg = cfg
	h.queues = make([]*telemetry.Queue, w.rooms)
	h.rooms = make([]*room, w.rooms)
	for i := range h.rooms {
		h.queues[i] = telemetry.NewQueue(512)
		h.rooms[i] = &room{idx: i}
		if tr != nil {
			h.rooms[i].rt = tr.room(i)
		}
	}
	return h
}

// parallel runs fn for every worker w over the rooms it owns and returns the
// first error.
func (h *host) parallel(fn func(w int) error) error {
	errs := make([]error, h.workers)
	var wg sync.WaitGroup
	for w := 0; w < h.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (h *host) pollerConfig() gateway.PollerConfig {
	return gateway.PollerConfig{ColdLimitC: h.cfg.ColdLimitC, PeriodS: h.cfg.Testbed.SamplePeriodS, Batch: h.cfg.Batch}
}

// build opens every room (store, warm-up) and dials its device sim.
func (h *host) build() error {
	return h.parallel(func(w int) error {
		for i := w; i < len(h.rooms); i += h.workers {
			rm := h.rooms[i]
			r, err := fleet.NewRunner(h.cfg, i, h.queues[i], "benchmark")
			if err != nil {
				return err
			}
			rm.runner = r
			if rm.bus, err = attachBus(h.gw, h.cfg.RoomName(i), r.Plant(), h.pollerConfig()); err != nil {
				return err
			}
			if _, err := rm.bus.dev.ReadHolding(modbus.RegSetpoint, 1); err != nil {
				return fmt.Errorf("dialing room %d: %w", i, err)
			}
		}
		return nil
	})
}

// stepAll is the closed loop: worker w steps its rooms round-robin, one step
// each per pass, until every room has finished its horizon. In a traced
// episode only odd passes are traced (recoveries always are), so traced and
// untraced steps run side by side under the same machine load and their
// difference is the tracing overhead.
func (h *host) stepAll(ep *episode) error {
	type out struct {
		steps, traced, recovers []time.Duration
		ep                      episode // failures and recovery counters
	}
	outs := make([]out, h.workers)
	err := h.parallel(func(w int) error {
		o := &outs[w]
		for pass, active := 0, true; active; pass++ {
			active = false
			traced := h.tracer != nil && pass%2 == 1
			for i := w; i < len(h.rooms); i += h.workers {
				rm := h.rooms[i]
				if rm.runner.Done() {
					continue
				}
				active = true
				k := rm.runner.StepIndex() - 1
				if h.w.crashesAfter(k) {
					d, err := h.crash(rm, k, &o.ep)
					if err != nil {
						return err
					}
					o.recovers = append(o.recovers, d)
					continue
				}
				d, ckpt, err := h.step(rm, k+1, traced)
				if err != nil {
					return err
				}
				switch {
				case h.tracer == nil:
					o.steps = append(o.steps, d)
				case ckpt:
					// Checkpoint steps (i+1 ≡ 0 mod 64) all fall on odd,
					// traced passes; keeping them would bias the overhead.
				case traced:
					o.traced = append(o.traced, d)
				default:
					o.steps = append(o.steps, d)
				}
			}
		}
		return nil
	})
	for _, o := range outs {
		ep.steps = append(ep.steps, o.steps...)
		ep.traced = append(ep.traced, o.traced...)
		ep.recovers = append(ep.recovers, o.recovers...)
		ep.attempts += o.ep.attempts
		ep.failures = append(ep.failures, o.ep.failures...)
		ep.replayed += o.ep.replayed
		ep.mismatches[0] += o.ep.mismatches[0]
		ep.mismatches[1] += o.ep.mismatches[1]
	}
	return err
}

// step runs one live Step of room rm, which executes evaluation step i and
// writes a checkpoint when ckpt is true.
func (h *host) step(rm *room, i int, traced bool) (d time.Duration, ckpt bool, err error) {
	if rm.rt != nil {
		rm.rt.on = traced
		rm.rt.resetHooks()
	}
	t0 := time.Now()
	err = rm.runner.Step()
	t1 := time.Now()
	if err != nil {
		return 0, false, err
	}
	rm.liveSteps++
	ckpt = (i+1)%h.w.snapEvery == 0 && i+1 < h.w.steps
	if traced {
		rm.rt.recordStep(i, rm.rt.at(t0), rm.rt.at(t1), ckpt)
	}
	return t1.Sub(t0), ckpt, nil
}

// crash kills room rm right after step k — the runner's store is abandoned
// the way a dead process leaves it and its field path dies with it — and
// times the failover: a fresh Runner recovered from the store, the field
// path re-attached, and the first live step.
func (h *host) crash(rm *room, k int, ep *episode) (time.Duration, error) {
	want := rm.runner.LastSample().Clone()
	rm.runner.Abandon()
	h.detach(rm)

	rt := rm.rt
	t0 := time.Now()
	if rt != nil {
		rt.on = true
		rt.beginRecover(k+1, rt.at(t0))
	}
	r, err := fleet.NewRunner(h.cfg, rm.idx, h.queues[rm.idx], "benchmark")
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	if rt != nil {
		rt.endNewRunner(rt.at(t1))
	}
	rm.runner = r
	next, got, info := r.StepIndex(), r.LastSample(), r.Recovery()
	ep.check(next == k+1, "room %d: recovered at step %d, want %d", rm.idx, next, k+1)
	ep.check(sameSample(&got, &want), "room %d: replayed sample of step %d differs from the live one", rm.idx, k)
	ep.check(info.Recovered && info.DecisionMismatches == 0 && info.PlantMismatches == 0,
		"room %d: recovery after step %d: %+v", rm.idx, k, info)
	ep.replayed += info.ReplayedSteps
	ep.mismatches[0] += info.DecisionMismatches
	ep.mismatches[1] += info.PlantMismatches
	if rm.bus, err = attachBus(h.gw, h.cfg.RoomName(rm.idx), r.Plant(), h.pollerConfig()); err != nil {
		return 0, err
	}
	t2 := time.Now()
	if rt != nil {
		rt.resetHooks()
	}
	if err := r.Step(); err != nil {
		return 0, err
	}
	t3 := time.Now()
	rm.liveSteps++
	if rt != nil {
		rt.endRecover(rt.at(t2), rt.at(t3))
	}
	return t3.Sub(t0), nil
}

// detach tears down a room's field path, folding its poller's ledger into the
// room's totals.
func (h *host) detach(rm *room) {
	if rm.bus == nil {
		return
	}
	roll := rm.bus.close()
	rm.samples += roll.Samples
	rm.gaps += roll.Gaps
	rm.bus = nil
}

// abandon releases every room after a failed step phase.
func (h *host) abandon() {
	for _, rm := range h.rooms {
		if rm.runner != nil {
			rm.runner.Abandon()
		}
		h.detach(rm)
	}
}

// finish completes every room and folds the trajectory hashes in room order:
// FNV-1a over each hash's little-endian bytes, as scheduler.Harness folds them.
func (h *host) finish(ep *episode) error {
	fold := fnv.New64a()
	for _, rm := range h.rooms {
		res, err := rm.runner.Finish()
		h.detach(rm)
		if err != nil {
			return err
		}
		ep.results = append(ep.results, res)
		fold.Write(binary.LittleEndian.AppendUint64(nil, res.TrajectoryHash))
		ep.samples += rm.samples
		ep.gaps += rm.gaps
	}
	ep.hash = fold.Sum64()
	return nil
}

// checkLedgers runs the exact-accounting checks over the finished episode.
// Every Step call and every recovery also counts as one attempted operation.
func (h *host) checkLedgers(ep *episode) {
	ep.attempts += len(ep.recovers)
	for i, rm := range h.rooms {
		ep.live += rm.liveSteps
		ep.attempts += rm.liveSteps
		res := ep.results[i]
		ep.check(res.Steps == res.PlannedSteps && rm.liveSteps > 0,
			"room %d: %d of %d steps executed", i, res.Steps, res.PlannedSteps)
		ep.check(rm.samples+rm.gaps == uint64(rm.liveSteps) && rm.gaps == 0,
			"room %d: field ledger %d samples + %d gaps for %d live steps", i, rm.samples, rm.gaps, rm.liveSteps)
	}
	g := ep.gateway
	ep.check(g.Submitted == g.Completed+g.Failed && g.Failed == 0 && g.Dropped == 0,
		"gateway ledger: submitted %d, completed %d, failed %d, dropped %d", g.Submitted, g.Completed, g.Failed, g.Dropped)
	ep.check(ep.pushed == ep.ingested+ep.dropped,
		"telemetry ledger: pushed %d != ingested %d + dropped %d", ep.pushed, ep.ingested, ep.dropped)
}

// sameSample reports bit-equality of two plant samples.
func sameSample(a, b *testbed.Sample) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return a.Interrupted == b.Interrupted && eq(a.DCTemps, b.DCTemps) && eq(a.ACUTemps, b.ACUTemps) &&
		eq([]float64{a.TimeS, a.SetpointC, a.ACUPowerKW, a.ACUDuty, a.SupplyC, a.AvgServerKW, a.TotalIT, a.AvgUtil, a.MaxColdAisle, a.TrueMaxColdC},
			[]float64{b.TimeS, b.SetpointC, b.ACUPowerKW, b.ACUDuty, b.SupplyC, b.AvgServerKW, b.TotalIT, b.AvgUtil, b.MaxColdAisle, b.TrueMaxColdC})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
