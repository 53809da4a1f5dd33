package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"tesla/internal/control"
	"tesla/internal/experiment"
	"tesla/internal/fleet"
)

// TestSmokeWorkloads runs every workload at smoke scale, traced and
// untraced, with one worker and with GOMAXPROCS: every metric BENCHMARK.json
// names is emitted and finite, every check passes, the trajectory matches
// its pin and is the same in all four runs, and the spans reconcile.
func TestSmokeWorkloads(t *testing.T) {
	def, err := loadBenchDef(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layer []string
	for _, m := range def.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range def.PerLayer {
		layer = append(layer, m.Name)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var hash string
			for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
				for _, traced := range []bool{false, true} {
					res, err := runWorkload(options{workload: w.name, seed: pinnedSeed, scale: "smoke",
						trace: traced, workers: workers, dataDir: t.TempDir()}, io.Discard)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
						t.Fatalf("workers %d traced %v: %d of %d checks failed: %v", workers, traced, res.Failed, res.Attempted, res.Failures)
					}
					if res.HashPin != "match" {
						t.Errorf("workers %d traced %v: hash %s is %s", workers, traced, res.Hash, res.HashPin)
					}
					if hash == "" {
						hash = res.Hash
					} else if res.Hash != hash {
						t.Errorf("workers %d traced %v: hash %s, first run %s", workers, traced, res.Hash, hash)
					}
					want := e2e
					if traced {
						want = layer
						if v := res.Metrics["trace.reconcile_err_pct"].Value; v > 1 {
							t.Errorf("spans reconcile to %.3f%%", v)
						}
						if res.Metrics["control.restore.mean_us"].Value <= 0 {
							t.Error("no recovery restored a checkpoint")
						}
					}
					if len(res.Metrics) != len(want) {
						t.Errorf("workers %d traced %v: %d metrics, BENCHMARK.json names %d", workers, traced, len(res.Metrics), len(want))
					}
					for _, name := range want {
						m, ok := res.Metrics[name]
						if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
							t.Errorf("workers %d traced %v: metric %s = %+v", workers, traced, name, m)
						}
					}
				}
			}
		})
	}
}

var (
	artsOnce sync.Once
	arts     *experiment.Artifacts
	artsErr  error
)

func trainedArtifacts(t *testing.T) *experiment.Artifacts {
	artsOnce.Do(func() { arts, artsErr = experiment.Prepare(experiment.CIScale(), false) })
	if artsErr != nil {
		t.Fatal(artsErr)
	}
	return arts
}

// TestTimedPolicyKeepsInterfaces checks the timing decorator is Durable
// exactly when the policy it wraps is: a Fixed room must run past its
// checkpoint interval without a checkpoint, and a durable room must recover
// from the checkpoint its wrapped policy wrote.
func TestTimedPolicyKeepsInterfaces(t *testing.T) {
	a := trainedArtifacts(t)
	policies := []struct {
		name    string
		durable bool
		build   func(seed uint64) (control.Policy, error)
	}{
		{"fixed", false, func(uint64) (control.Policy, error) { return control.Fixed{SetpointC: 23}, nil }},
		{"modelfree", true, func(uint64) (control.Policy, error) { return a.NewModelFreePolicy() }},
		{"tesla", true, func(seed uint64) (control.Policy, error) { return a.NewTESLAPolicy(seed) }},
	}
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			rt := newTracer().room(0)
			cfg := fleet.DefaultConfig(1, 5, func(_ int, seed uint64) (control.Policy, error) {
				pol, err := p.build(seed)
				if err != nil {
					return nil, err
				}
				w := rt.wrap(pol)
				if _, ok := w.(control.Durable); ok != p.durable {
					t.Fatalf("wrapped %s: Durable %v, want %v", p.name, ok, p.durable)
				}
				return w, nil
			})
			cfg.WarmupS, cfg.EvalS = 3600, 20*60
			cfg.DataDir, cfg.SnapshotEvery = t.TempDir(), 4
			r, err := fleet.NewRunner(cfg, 0, nil, "test")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if err := r.Step(); err != nil {
					t.Fatal(err)
				}
			}
			r.Abandon()
			r, err = fleet.NewRunner(cfg, 0, nil, "test")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Abandon()
			info := r.Recovery()
			wantSnap := -1
			if p.durable {
				wantSnap = 8
			}
			if info.SnapshotStep != wantSnap || r.StepIndex() != 10 || info.DecisionMismatches != 0 {
				t.Errorf("recovered %+v at step %d, want snapshot step %d and step 10", info, r.StepIndex(), wantSnap)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end": [
		{"name": "step_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "rooms_per_core", "unit": "rooms", "better": "higher", "bound": 0.1},
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(set string, i int, p50, perCore, setup float64) {
		d := filepath.Join(dir, set)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		r := result{Workload: "w", Metrics: map[string]metric{
			"step_p50_ms": {p50, "ms"}, "rooms_per_core": {perCore, "rooms"}, "setup_s": {setup, "s"}}}
		if err := writeJSON(filepath.Join(d, string(rune('a'+i))+".json"), r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		write("a", i, 10, 1000, 1+float64(i))
		write("b", i, 15, 1010, 1+float64(i))
	}
	var out bytes.Buffer
	if err := compare(bench, filepath.Join(dir, "a"), filepath.Join(dir, "b"), &out); err != nil {
		t.Fatal(err)
	}
	for metric, verdict := range map[string]string{"step_p50_ms": "REGRESSED", "rooms_per_core": "within bound", "setup_s": "unresolved"} {
		if !strings.Contains(out.String(), metric) || !lineHas(out.String(), metric, verdict) {
			t.Errorf("%s: want %q in\n%s", metric, verdict, out.String())
		}
	}
}

func lineHas(text, metric, verdict string) bool {
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, " "+metric+" ") && strings.Contains(l, verdict) {
			return true
		}
	}
	return false
}
