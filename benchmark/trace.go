package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"tesla/internal/bo"
	"tesla/internal/control"
	"tesla/internal/dataset"
	"tesla/internal/errmon"
	"tesla/internal/experiment"
	"tesla/internal/fleet"
	"tesla/internal/model"
)

// spanKind names a layer boundary the traced run timestamps from outside the
// program: around Runner.Step and fleet.NewRunner, inside the policy wrapper
// and inside the Actuate and Publish hooks.
type spanKind uint8

const (
	// A live step: Runner.Step. Its children tile it exactly, in the fixed
	// order stepOnce runs them.
	spStep       spanKind = iota
	spSupervise           // Step entry → Decide entry and Decide exit → Actuate entry (or all of it when the supervisor holds)
	spDecide              // the policy's Decide
	spWrite               // Actuate hook: gateway write over Modbus
	spAdvance             // Actuate exit → Publish entry: the simulated plant
	spPoll                // Publish hook: bridge refresh, PollOnce, DrainOnce
	spAppend              // Publish exit → Step exit: queue push, WAL append + fsync
	spCheckpoint          // the same boundary on steps that also write a checkpoint
	// A recovery: crashed store → fleet.NewRunner + field bus + first Step.
	spRecover
	spNewRunner // fleet.NewRunner; its self time is store open and scan, warm-up, plant replay, supervisor restore
	spBuild     // PolicyFactory call inside NewRunner
	spRestore   // policy Restore inside NewRunner (GP refit)
	spReplay    // each Decide NewRunner replays
	spAttach    // device sim started and added to the gateway
	spResume    // the first live Step
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"fleet.step", "safety.supervise", "control.decide", "gateway.write", "testbed.advance",
	"gateway.poll", "store.append", "store.checkpoint",
	"fleet.recover", "fleet.new_runner", "control.build", "control.restore", "control.replay_decide",
	"gateway.attach", "fleet.resume_step",
}

func isRoot(k spanKind) bool { return k == spStep || k == spRecover }

func rootOf(k spanKind) spanKind {
	if k < spRecover {
		return spStep
	}
	return spRecover
}

// span is one timed interval in nanoseconds since the tracer's epoch. Parent
// indexes the same room's span slice, -1 for a root.
type span struct {
	Kind       spanKind
	Room, Step int32
	Parent     int32
	Start, End int64
}

// tracer owns the epoch every span of one episode is measured from.
type tracer struct {
	epoch time.Time
	rooms []*roomTrace
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) room(i int) *roomTrace {
	rt := &roomTrace{epoch: t.epoch, room: int32(i)}
	t.rooms = append(t.rooms, rt)
	return rt
}

// roomTrace records one room's spans. Only the goroutine that owns the room
// touches it.
type roomTrace struct {
	epoch time.Time
	room  int32
	on    bool // the step or recovery in flight is traced
	spans []span
	bad   int // spans that ended before they started: a hook did not fire in order

	// Stamps of the step in flight.
	haveDecide                                  bool
	decIn, decOut, actIn, actOut, pubIn, pubOut int64

	// The recovery in flight.
	recovering    bool
	recStep       int32
	recIdx, nrIdx int32

	// Counters read through the policy's public accessors.
	tesla                  *control.TESLA // the current inner policy, when it is TESLA
	trace                  *dataset.Trace // the trace the policy last decided on
	liveDecides, boDecides uint64
	evals                  uint64
}

func (rt *roomTrace) now() int64           { return int64(time.Since(rt.epoch)) }
func (rt *roomTrace) at(t time.Time) int64 { return int64(t.Sub(rt.epoch)) }
func (rt *roomTrace) resetHooks()          { rt.haveDecide, rt.actIn, rt.pubIn = false, 0, 0 }

// push appends a span. A zero start means a hook did not fire.
func (rt *roomTrace) push(k spanKind, step, parent int32, t0, t1 int64) int32 {
	if t0 <= 0 || t1 < t0 {
		rt.bad++
	}
	rt.spans = append(rt.spans, span{Kind: k, Room: rt.room, Step: step, Parent: parent, Start: t0, End: t1})
	return int32(len(rt.spans) - 1)
}

// recordStep turns the stamps of live step i into its spans.
func (rt *roomTrace) recordStep(i int, t0, t1 int64, checkpoint bool) {
	s := int32(i)
	p := rt.push(spStep, s, -1, t0, t1)
	if rt.haveDecide {
		rt.push(spSupervise, s, p, t0, rt.decIn)
		rt.push(spDecide, s, p, rt.decIn, rt.decOut)
		rt.push(spSupervise, s, p, rt.decOut, rt.actIn)
	} else {
		rt.push(spSupervise, s, p, t0, rt.actIn)
	}
	rt.push(spWrite, s, p, rt.actIn, rt.actOut)
	rt.push(spAdvance, s, p, rt.actOut, rt.pubIn)
	rt.push(spPoll, s, p, rt.pubIn, rt.pubOut)
	store := spAppend
	if checkpoint {
		store = spCheckpoint
	}
	rt.push(store, s, p, rt.pubOut, t1)
}

// beginRecover opens a recovery resuming at step; child spans recorded until
// endNewRunner hang under its fleet.new_runner span.
func (rt *roomTrace) beginRecover(step int, t0 int64) {
	rt.recovering, rt.recStep = true, int32(step)
	rt.recIdx = rt.push(spRecover, rt.recStep, -1, t0, t0)
	rt.nrIdx = rt.push(spNewRunner, rt.recStep, rt.recIdx, t0, t0)
}

func (rt *roomTrace) child(k spanKind, t0, t1 int64) {
	if rt.recovering {
		rt.push(k, rt.recStep, rt.nrIdx, t0, t1)
	}
}

func (rt *roomTrace) endNewRunner(t1 int64) {
	rt.spans[rt.nrIdx].End = t1
	rt.recovering = false
}

func (rt *roomTrace) endRecover(attached, resumed int64) {
	rt.push(spAttach, rt.recStep, rt.recIdx, rt.spans[rt.nrIdx].End, attached)
	rt.push(spResume, rt.recStep, rt.recIdx, attached, resumed)
	rt.spans[rt.recIdx].End = resumed
}

// decided files one Decide call: a replayed one during recovery, otherwise
// the live decide of the step in flight, counted whether or not it is timed.
func (rt *roomTrace) decided(t0, t1 int64, tr *dataset.Trace, before *bo.Result) {
	rt.trace = tr
	if rt.recovering {
		rt.child(spReplay, t0, t1)
		return
	}
	if rt.on {
		rt.haveDecide, rt.decIn, rt.decOut = true, t0, t1
	}
	rt.liveDecides++
	if rt.tesla != nil {
		if res := rt.tesla.LastResult(); res != nil && res != before {
			rt.boDecides++
			rt.evals += uint64(len(res.Evals))
		}
	}
}

// wrap returns p behind a timing decorator. The fleet checkpoints a policy
// only when it implements control.Durable, so the decorator must implement
// Durable exactly when p does: forwarding Snapshot to a policy without it
// cannot work, and hiding it silently turns checkpoints off.
func (rt *roomTrace) wrap(p control.Policy) control.Policy {
	rt.tesla, _ = p.(*control.TESLA)
	tp := timedPolicy{inner: p, rt: rt}
	if d, ok := p.(control.Durable); ok {
		return &timedDurable{timedPolicy: tp, d: d}
	}
	return &tp
}

type timedPolicy struct {
	inner control.Policy
	rt    *roomTrace
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Decide(tr *dataset.Trace, t int) float64 {
	var before *bo.Result
	if p.rt.tesla != nil {
		before = p.rt.tesla.LastResult()
	}
	if !p.rt.on {
		sp := p.inner.Decide(tr, t)
		p.rt.decided(0, 0, tr, before)
		return sp
	}
	t0 := p.rt.now()
	sp := p.inner.Decide(tr, t)
	p.rt.decided(t0, p.rt.now(), tr, before)
	return sp
}

type timedDurable struct {
	timedPolicy
	d control.Durable
}

func (p *timedDurable) Snapshot() ([]byte, error) { return p.d.Snapshot() }

func (p *timedDurable) Restore(blob []byte) error {
	t0 := p.rt.now()
	err := p.d.Restore(blob)
	p.rt.child(spRestore, t0, p.rt.now())
	return err
}

// spanAgg folds spans into per-kind samples. A kind's sample is its self
// time (duration minus the part its children cover) summed over one root
// occurrence — one step or one recovery; a root's sample is its duration.
type spanAgg struct {
	occ    [numSpanKinds][]int64
	self   [numSpanKinds]int64 // Σ self time per kind
	rootNs [numSpanKinds]int64 // Σ duration per root kind
}

func (a *spanAgg) add(spans []span) {
	self := make([]int64, len(spans))
	for i, s := range spans {
		d := s.End - s.Start
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	// A root is followed by its descendants, so each root owns a contiguous
	// run of the slice.
	for i := 0; i < len(spans); {
		j := i + 1
		for j < len(spans) && spans[j].Parent >= 0 {
			j++
		}
		var per [numSpanKinds]int64
		var seen [numSpanKinds]bool
		for x := i; x < j; x++ {
			per[spans[x].Kind] += self[x]
			seen[spans[x].Kind] = true
		}
		r := spans[i].Kind
		a.rootNs[r] += spans[i].End - spans[i].Start
		for k := range per {
			if !seen[k] {
				continue
			}
			a.self[k] += per[k]
			if isRoot(spanKind(k)) {
				per[k] = spans[i].End - spans[i].Start
			}
			a.occ[k] = append(a.occ[k], per[k])
		}
		i = j
	}
}

func (a *spanAgg) merge(b *spanAgg) {
	for k := range a.occ {
		a.occ[k] = append(a.occ[k], b.occ[k]...)
		a.self[k] += b.self[k]
		a.rootNs[k] += b.rootNs[k]
	}
}

// reconcileErr is the share of root time no child span accounts for, worst
// of steps and recoveries; the child spans tile their root, so anything but
// zero means the stamps were taken out of order.
func (a *spanAgg) reconcileErr() float64 {
	var worst float64
	for _, r := range []spanKind{spStep, spRecover} {
		if a.rootNs[r] > 0 {
			if e := math.Abs(float64(a.self[r])) / float64(a.rootNs[r]); e > worst {
				worst = e
			}
		}
	}
	return worst
}

// spanMetrics reports mean and p99 per occurrence for every span, and every
// non-root span's share of its root's total time.
func (a *spanAgg) spanMetrics(m map[string]metric) {
	for k := spanKind(0); k < numSpanKinds; k++ {
		name := spanNames[k]
		ds := make([]time.Duration, len(a.occ[k]))
		for i, v := range a.occ[k] {
			ds[i] = time.Duration(v)
		}
		m[name+".mean_us"] = metric{1e6 * meanSeconds(ds), "us"}
		m[name+".p99_us"] = metric{float64(fleet.ComputeLatencyStats(ds).P99.Nanoseconds()) / 1e3, "us"}
		if !isRoot(k) {
			var share float64
			if root := a.rootNs[rootOf(k)]; root > 0 {
				share = float64(a.self[k]) / float64(root)
			}
			m[name+".share"] = metric{share, "ratio"}
		}
	}
}

// appendSpansFile appends every span of a traced episode to the file at path
// as JSON lines. Span ids number the file's lines; parent is an id or -1.
func appendSpansFile(path string, episode int, tr *tracer, nextID *int64) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, rt := range tr.rooms {
		base := *nextID
		for _, s := range rt.spans {
			parent := int64(-1)
			if s.Parent >= 0 {
				parent = base + int64(s.Parent)
			}
			if err := enc.Encode(struct {
				ID      int64  `json:"id"`
				Episode int    `json:"episode"`
				Name    string `json:"name"`
				Room    int32  `json:"room"`
				Step    int32  `json:"step"`
				StartNs int64  `json:"start_ns"`
				EndNs   int64  `json:"end_ns"`
				Parent  int64  `json:"parent"`
			}{*nextID, episode, spanNames[s.Kind], s.Room, s.Step, s.Start, s.End, parent}); err != nil {
				f.Close()
				return err
			}
			*nextID++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shadowSteps bounds the shadow TESLA replay calibrate runs on workloads
// whose rooms are not TESLA: enough decisions to mature a window of
// prediction errors, at well under a second.
const shadowSteps = 96

// calibration is the split of control.decide the outside-in trace cannot
// see. The shares are of the calibrated Decides' own time.
type calibration struct {
	predictUs, bootstrapUs  float64 // per call, median over the samples
	modelShare, errmonShare float64
}

// calibrate splits Decide after the run, outside every span. At 16 steps of a
// room's recorded trace it times, back to back so that drift in the host's
// speed cancels: one whole Decide of the room's TESLA controller; the
// predictions that Decide made, replayed with model.Predict on the history
// model.HistoryAt extracts (one per BO evaluation, one for the chosen
// set-point); and one error-monitor bootstrap, Objective()+Constraint() on a
// monitor rebuilt from the controller's Monitor().State(). Without a TESLA
// controller in the run, a shadow TESLA decides over the last shadowSteps
// steps of the trace to supply one.
func calibrate(arts *experiment.Artifacts, tr *dataset.Trace, tesla *control.TESLA, seed uint64) (calibration, error) {
	var c calibration
	L := arts.Model.Config().L
	if tr == nil || tr.Len() < L+1 {
		return c, fmt.Errorf("calibration needs a recorded trace of at least %d steps", L+1)
	}
	if tesla == nil {
		var err error
		if tesla, err = arts.NewTESLAPolicy(seed); err != nil {
			return c, err
		}
		for t := max(L-1, tr.Len()-shadowSteps); t < tr.Len(); t++ {
			tesla.Decide(tr, t)
		}
	}
	tb := arts.TBConf.ACU
	cfg := control.DefaultTESLAConfig(tb.SetpointMinC, tb.SetpointMaxC)
	var predicts, boots []float64
	var decideNs, predictNs, bootNs int64
	for s := 0; s < 16; s++ {
		t := L - 1 + s*(tr.Len()-L)/16
		h, err := model.HistoryAt(tr, t, L)
		if err != nil {
			return c, err
		}
		mon, err := errmon.New(cfg.MonitorCapacity, cfg.Bootstrap, seed)
		if err != nil {
			return c, err
		}
		if err := mon.Restore(tesla.Monitor().State()); err != nil {
			return c, err
		}

		before := tesla.LastResult()
		t0 := time.Now()
		tesla.Decide(tr, t)
		decideNs += time.Since(t0).Nanoseconds()
		res := tesla.LastResult()
		if res == nil || res == before {
			continue // no BO ran: nothing to split
		}
		xs := []float64{res.X}
		for _, e := range res.Evals {
			xs = append(xs, e.X)
		}
		t0 = time.Now()
		for _, x := range xs {
			if _, err := arts.Model.Predict(h, x); err != nil {
				return c, err
			}
		}
		d := time.Since(t0).Nanoseconds()
		predictNs += d
		predicts = append(predicts, float64(d)/float64(len(xs))/1e3)

		t0 = time.Now()
		mon.Objective()
		mon.Constraint()
		d = time.Since(t0).Nanoseconds()
		bootNs += d
		boots = append(boots, float64(d)/1e3)
	}
	c.predictUs, c.bootstrapUs = median(predicts), median(boots)
	c.modelShare = ratio(float64(predictNs), float64(decideNs))
	c.errmonShare = ratio(float64(bootNs), float64(decideNs))
	return c, nil
}
