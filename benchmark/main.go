// Command benchmark is the repository's end-to-end benchmark. Each workload
// hosts rooms the way a control-plane shard does — fleet.Runners on durable
// WAL stores (every record fsynced), actuated over a Modbus field bus through
// one shared gateway, their telemetry drained by one ingestor — steps them in
// a closed loop, crashes and recovers them on a fixed schedule, and times
// every call into the program from outside. Run from the repository root:
//
//	bash benchmark/run.sh --workload tesla-wire --seed 13 --seconds 30 --trace 0
//
// or, from this directory, go run . -workload tesla-wire. -trace 1 runs the
// traced variant, which splits each step and each recovery into layers and
// prints the per-layer metrics instead of the end-to-end ones. The last line
// of standard output is one JSON object with the keys correct, attempted,
// failed and metrics; the exit code is non-zero when a check failed.
// -compare <dirA> <dirB> compares two directories of -out results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"tesla/internal/experiment"
	"tesla/internal/fleet"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    string
	workers  int // closed-loop worker goroutines; 0 selects GOMAXPROCS
	dataDir  string
	spans    string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run. The last line of standard output is its projection on
// correct, attempted, failed and metrics; -out writes all of it.
type result struct {
	Env       envHeader         `json:"env"`
	Workload  string            `json:"workload"`
	Scale     string            `json:"scale"`
	Seed      uint64            `json:"seed"`
	Workers   int               `json:"workers"`
	Trace     bool              `json:"trace"`
	Episodes  int               `json:"episodes"`
	Hash      string            `json:"trajectory_hash"`
	HashPin   string            `json:"hash_pin"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 13, "seed every input is derived from")
	fs.Float64Var(&o.seconds, "seconds", 30, "run length: round(seconds / 10) episodes of about 10 s each, at least one; none started that would likely end past 1.3 × seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	fs.StringVar(&o.scale, "scale", "full", "full, or smoke: 2 rooms × 40 steps, checkpoints every 8, each workload's crash schedule at that size")
	fs.StringVar(&o.dataDir, "datadir", ".bench_build/data", "directory the room stores are created under (tmpfs is refused)")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1, append every span to this file as JSON lines")
	out := fs.String("out", "", "also write the whole result, environment header included, to this JSON file")
	cmp := fs.Bool("compare", false, "compare two directories of -out results: -compare <dirA> <dirB>")
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result directories")
			return 2
		}
		if err := compare(*bench, fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		return 0
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	o.trace = trace == 1

	res, err := runWorkload(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	for _, f := range res.Failures {
		fmt.Fprintln(stdout, "FAIL:", f)
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runWorkload runs round(o.seconds / episodeSeconds) episodes, at least one,
// fewer if the next would likely end past 1.3 × o.seconds. A traced run
// starts with one untraced episode, whose trajectory every traced one must
// repeat.
func runWorkload(o options, log io.Writer) (*result, error) {
	w, err := findWorkload(o.workload, o.scale)
	if err != nil {
		return nil, err
	}
	workers := o.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
		return nil, err
	}
	fsName, err := dataFilesystem(o.dataDir)
	if err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(o.dataDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	res := &result{Env: environment(fsName), Workload: w.name, Scale: o.scale, Seed: o.seed, Workers: workers, Trace: o.trace}
	fmt.Fprintf(log, "benchmark %s: scale %s, %d rooms × %d steps, seed %d, %d workers, trace %v\n",
		w.name, o.scale, w.rooms, w.steps, o.seed, workers, o.trace)
	fmt.Fprintf(log, "env: %s\n", res.Env)

	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	episodes := max(int(math.Round(o.seconds/episodeSeconds)), 1)
	if o.trace {
		episodes = max(episodes, 2)
	}
	var plain, traced []*episode
	var last *tracer
	var spanID int64
	for n := 0; ; n++ {
		var tr *tracer
		if o.trace && n > 0 {
			tr = newTracer()
		}
		// Start every episode from the same heap, so the peak RSS does not
		// depend on how much of the last episode was still uncollected.
		runtime.GC()
		ep, err := runEpisode(w, o.seed, workers, filepath.Join(runDir, fmt.Sprint("ep", n)), tr)
		if err != nil {
			return nil, fmt.Errorf("%s episode %d: %w", w.name, n, err)
		}
		// Only the last episode's models are used (by the calibration); let
		// the earlier ones go, or the peak RSS grows with the episode count.
		for _, prev := range plain {
			prev.arts = nil
		}
		for _, prev := range traced {
			prev.arts = nil
		}
		if tr != nil {
			if o.spans != "" {
				if err := appendSpansFile(o.spans, n, tr, &spanID); err != nil {
					return nil, err
				}
			}
			for _, rt := range tr.rooms {
				rt.spans = nil
			}
			traced, last = append(traced, ep), tr
		} else {
			plain = append(plain, ep)
		}
		fmt.Fprintf(log, "episode %d: setup %.3fs, %d steps (mean %.3fms), %d traced steps, %d recoveries, hash %016x, %d/%d checks failed\n",
			n, ep.setup.Seconds(), len(ep.steps), 1e3*meanSeconds(ep.steps), len(ep.traced), len(ep.recovers), ep.hash, len(ep.failures), ep.attempts)
		// A fixed episode count keeps every run's statistics alike however
		// the host's speed drifts. On a slow host, no episode starts that
		// would likely end past 1.3 × the budget.
		elapsed := time.Since(start)
		if n+1 >= episodes || elapsed+elapsed/time.Duration(n+1) > budget*13/10 && (!o.trace || len(traced) > 0) {
			break
		}
	}

	all := append(append([]*episode(nil), plain...), traced...)
	check := func(ok bool, format string, args ...any) {
		res.Attempted++
		if !ok {
			res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
		}
	}
	for _, ep := range all {
		res.Attempted += ep.attempts
		res.Failures = append(res.Failures, ep.failures...)
		check(ep.hash == all[0].hash, "trajectory hash %016x differs from the first episode's %016x", ep.hash, all[0].hash)
	}
	res.Episodes, res.Hash, res.HashPin = len(all), fmt.Sprintf("%016x", all[0].hash), "unpinned"
	if want, ok := pinnedHashes[o.scale+"/"+w.name]; ok && o.seed == pinnedSeed {
		res.HashPin = "match"
		check(all[0].hash == want, "trajectory hash %016x, pinned %016x for seed %d", all[0].hash, want, pinnedSeed)
		if all[0].hash != want {
			res.HashPin = "mismatch"
		}
	}

	if o.trace {
		res.Metrics, err = perLayerMetrics(w, o.seed, traced, last, check)
		if err != nil {
			return nil, err
		}
	} else {
		res.Metrics = endToEndMetrics(plain)
	}
	res.Failed = len(res.Failures)
	res.Correct = res.Failed == 0
	for _, name := range sortedKeys(res.Metrics) {
		fmt.Fprintf(log, "  %-32s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	return res, nil
}

// pinnedSeed is the seed the trajectory hashes below are pinned for: every
// workload's per-room trajectory hashes folded in room order. Any change to
// what the rooms compute changes them; other seeds are reported unpinned.
// Crashes and checkpoints never move a trajectory, so the two TESLA
// workloads share the smoke pin: both are 2 rooms × 40 steps.
const pinnedSeed = 13

var pinnedHashes = map[string]uint64{
	"full/tesla-wire":       0xceb3b029beed191d,
	"full/shard-modelfree":  0xa8e22268ec4e96d4,
	"full/tesla-failover":   0x4de8d63b25cb8de2,
	"smoke/tesla-wire":      0x00c392554f378d69,
	"smoke/shard-modelfree": 0xf5ce3c6c025afce4,
	"smoke/tesla-failover":  0x00c392554f378d69,
}

// endToEndMetrics reports the latency percentiles over every untraced
// episode's samples pooled: an episode of tesla-failover has only 440 steps
// and 40 recoveries, too few for a steady p99 or p90 on their own. Set-up
// time and throughput, one number per episode, are the median over the
// episodes, so a burst of load from outside the process that spans less than
// half the run moves neither.
func endToEndMetrics(eps []*episode) map[string]metric {
	var setup, perCore []float64
	var steps, recovers []time.Duration
	for _, ep := range eps {
		setup = append(setup, ep.setup.Seconds())
		// Steps the closed loop completed per second of its step phase,
		// recoveries included, per processor, on the 60 s cadence.
		perCore = append(perCore, 60*ratio(float64(ep.live), ep.wall.Seconds())/float64(runtime.GOMAXPROCS(0)))
		steps = append(steps, ep.steps...)
		recovers = append(recovers, ep.recovers...)
	}
	st, rc := fleet.ComputeLatencyStats(steps), fleet.ComputeLatencyStats(recovers)
	return map[string]metric{
		"setup_s":        {median(setup), "s"},
		"step_p50_ms":    {ms(st.P50), "ms"},
		"step_p99_ms":    {ms(st.P99), "ms"},
		"rooms_per_core": {median(perCore), "rooms"},
		"recover_p50_ms": {ms(rc.P50), "ms"},
		"recover_p90_ms": {ms(rc.P90), "ms"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
	}
}

// perLayerMetrics assembles the traced run's layer table: span timings,
// counts read through public accessors, the calibrated split of Decide, the
// tracing overhead and the plant outcome.
func perLayerMetrics(w workload, seed uint64, traced []*episode, last *tracer, check func(bool, string, ...any)) (map[string]metric, error) {
	m := map[string]metric{}
	agg := &spanAgg{}
	var on, off []time.Duration
	for _, ep := range traced {
		agg.merge(ep.spans)
		on = append(on, ep.traced...)
		off = append(off, ep.steps...)
	}
	agg.spanMetrics(m)
	reconcile := 100 * agg.reconcileErr()
	check(reconcile <= 1, "spans reconcile to %.3f%% of the traced totals", reconcile)
	m["trace.reconcile_err_pct"] = metric{reconcile, "%"}
	m["trace.overhead_pct"] = metric{100 * (ratio(meanSeconds(on), meanSeconds(off)) - 1), "%"}

	// Counts repeat exactly from episode to episode; report the last one.
	ep := traced[len(traced)-1]
	var liveDecides, boDecides, evals, fallbacks uint64
	var window float64
	var teslas int
	for _, rt := range last.rooms {
		liveDecides += rt.liveDecides
		boDecides += rt.boDecides
		evals += rt.evals
		if rt.tesla != nil {
			fallbacks += rt.tesla.Diagnostics().OptimizerFallbacks
			window += float64(rt.tesla.Monitor().ObjectiveCount())
			teslas++
		}
	}
	var escalations uint64
	var kwh, tsv, ci float64
	for _, r := range ep.results {
		escalations += r.Escalations
		kwh += r.CEkWh
		tsv += r.TrueTSVFrac
		ci += r.CIFrac
	}
	rooms := float64(len(ep.results))
	g := ep.gateway
	m["safety.passthrough_frac"] = metric{ratio(float64(liveDecides), float64(ep.live)), "ratio"}
	m["safety.escalations"] = metric{float64(escalations), "count"}
	m["bo.evals_per_decide"] = metric{ratio(float64(evals), float64(boDecides)), "count"}
	m["tesla.optimizer_fallbacks"] = metric{float64(fallbacks), "count"}
	m["errmon.window_mean"] = metric{ratio(window, float64(teslas)), "count"}
	m["gateway.writes_per_step"] = metric{ratio(float64(g.Writes), float64(ep.live)), "ratio"}
	m["gateway.wire_reads_per_step"] = metric{ratio(float64(g.WireReads), float64(ep.live)), "ratio"}
	m["gateway.merge_ratio"] = metric{ratio(float64(g.MergedReads), float64(g.MergedReads+g.WireReads)), "ratio"}
	m["gateway.failed"] = metric{float64(g.Failed), "count"}
	m["gateway.reconnects"] = metric{float64(g.Reconnects), "count"}
	m["poller.samples"] = metric{float64(ep.samples), "count"}
	m["poller.gaps"] = metric{float64(ep.gaps), "count"}
	m["telemetry.queue_dropped"] = metric{float64(ep.dropped), "count"}
	m["store.bytes_per_step"] = metric{ratio(float64(ep.storeBytes), float64(w.rooms*w.steps)), "bytes"}
	m["fleet.replayed_steps_mean"] = metric{ratio(float64(ep.replayed), float64(len(ep.recovers))), "count"}
	m["fleet.decision_mismatches"] = metric{float64(ep.mismatches[0]), "count"}
	m["fleet.plant_mismatches"] = metric{float64(ep.mismatches[1]), "count"}
	m["testbed.cooling_kwh"] = metric{kwh / rooms, "kWh"}
	m["testbed.true_tsv_pct"] = metric{100 * tsv / rooms, "%"}
	m["testbed.ci_pct"] = metric{100 * ci / rooms, "%"}

	// The calibration reads the first room of the last traced episode whose
	// policy decided at least once; TESLA rooms hand it their controller.
	arts := ep.arts
	if arts == nil {
		var err error
		if arts, err = experiment.Prepare(experiment.CIScale(), false); err != nil {
			return nil, err
		}
	}
	var cal calibration
	for _, rt := range last.rooms {
		if rt.trace != nil {
			var err error
			if cal, err = calibrate(arts, rt.trace, rt.tesla, seed); err != nil {
				return nil, err
			}
			break
		}
	}
	m["model.predict_us"] = metric{cal.predictUs, "us"}
	m["errmon.bootstrap_us"] = metric{cal.bootstrapUs, "us"}
	// The split is of TESLA's Decide; where the rooms run another policy,
	// neither layer is on the step's path.
	if teslas == 0 {
		cal.modelShare, cal.errmonShare = 0, 0
	}
	m["model.share_est"] = metric{cal.modelShare, "ratio"}
	m["errmon.share_est"] = metric{cal.errmonShare, "ratio"}
	return m, nil
}

func meanSeconds(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ratio(sum.Seconds(), float64(len(ds)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
