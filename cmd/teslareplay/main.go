// Command teslareplay evaluates trained models against a recorded telemetry
// trace (CSV written by teslactl/teslatrain): it reports the multi-horizon
// DC-temperature and cooling-energy MAPE of TESLA's model on that trace,
// then replays the safety supervisor over the trace offline and lists the
// DC probes its validator quarantines (NaN, implausible, spiking,
// flat-lined or drifting readings) — the same validator every live room
// runs. -limit sets the cold-aisle limit the supervisor enforces.
//
// With -store it instead inspects a durable room store (the WAL + snapshot
// directory teslad and fleet runs write under -datadir): it performs the
// same recovery a restart would — torn-tail truncation included — then
// prints the log and checkpoint accounting and the replayed trajectory
// summary, optionally exporting the rebuilt trace as CSV for the -trace
// pipeline. Do not point it at a store a live daemon is writing.
//
// Usage:
//
//	teslareplay -trace run.csv [-scale ci] [-stride 7] [-limit 22]
//	teslareplay -store /var/lib/teslad/room-0 [-csv trace.csv] [-limit 22]
package main

import (
	"flag"
	"fmt"
	"os"

	"tesla/internal/dataset"
	"tesla/internal/experiment"
	"tesla/internal/fleet"
	"tesla/internal/model"
	"tesla/internal/safety"
	"tesla/internal/stats"
	"tesla/internal/store"
)

func main() {
	tracePath := flag.String("trace", "", "trace CSV to evaluate")
	scale := flag.String("scale", "ci", "training scale for the model: ci|paper")
	stride := flag.Int("stride", 7, "evaluation window stride")
	storeDir := flag.String("store", "", "durable room store (WAL + snapshots) to inspect instead of a CSV trace")
	csvOut := flag.String("csv", "", "with -store: write the rebuilt trace to this CSV file")
	coldLim := flag.Float64("limit", 22, "cold-aisle limit: the violation count with -store, the supervisor's limit with -trace")
	flag.Parse()

	var err error
	switch {
	case *storeDir != "":
		err = runStore(*storeDir, *csvOut, *coldLim)
	case *tracePath != "":
		err = run(*tracePath, *scale, *stride, *coldLim)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "teslareplay:", err)
		os.Exit(1)
	}
}

// runStore is `teslareplay -store`: recover a durable room store and report
// what a restart would see.
func runStore(dir, csvOut string, coldLim float64) error {
	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()

	warm, steps, err := store.Partition(rec.Records)
	if err != nil {
		return err
	}
	fmt.Printf("store %s\n", dir)
	fmt.Printf("  WAL: %d records (%d warm-up + %d steps) in %d segments\n",
		len(rec.Records), len(warm), len(steps), rec.WAL.Segments)
	if rec.WAL.Corruptions > 0 {
		fmt.Printf("  WAL damage: %d corruption sites, %d bytes truncated, %d segments dropped\n",
			rec.WAL.Corruptions, rec.WAL.TruncatedBytes, rec.WAL.DroppedSegments)
	}
	if rec.HaveCheckpoint {
		c := rec.Checkpoint
		fmt.Printf("  checkpoint: step %d (policy %dB, supervisor %dB, harness %dB)\n",
			c.Step, len(c.Policy), len(c.Supervisor), len(c.Harness))
		if c.Step < len(steps) {
			fmt.Printf("  recovery would replay steps %d..%d through the controller\n", c.Step, len(steps)-1)
		}
	} else {
		fmt.Printf("  checkpoint: none — recovery would replay all %d steps\n", len(steps))
	}
	if rec.InvalidSnapshots > 0 {
		fmt.Printf("  invalid snapshots: %d\n", rec.InvalidSnapshots)
	}
	if len(rec.Records) == 0 {
		return nil
	}

	tr, err := store.BuildTrace(60, rec.Records)
	if err != nil {
		return err
	}
	// The room's own accounting (fleet.Metrics, as in its RoomResult) over
	// the logged samples, before Finish turns the counts into fractions.
	var m fleet.Metrics
	levels := map[uint8]int{}
	for i := range steps {
		m.Add(&steps[i].Sample, tr.PeriodS, coldLim)
		levels[steps[i].Level]++
	}
	if len(steps) > 0 {
		fmt.Printf("\nreplayed trajectory (%d control steps, %d ACU + %d DC sensors):\n", len(steps), tr.Na(), tr.Nd())
		fmt.Printf("  cooling energy: %.2f kWh\n", m.CEkWh)
		fmt.Printf("  violation minutes: %d (limit %.1f°C), interruption minutes: %d\n", int(m.TSVFrac), coldLim, int(m.CIFrac))
		fmt.Printf("  mean set-point: %.2f°C, max cold-aisle: %.2f°C\n", m.Finish().MeanSp, m.MaxCold)
		fmt.Printf("  safety levels:")
		for lvl := uint8(0); lvl <= 3; lvl++ {
			if n := levels[lvl]; n > 0 {
				fmt.Printf(" L%d×%d", lvl, n)
			}
		}
		fmt.Println()
	}

	if csvOut != "" {
		f, err := os.Create(csvOut)
		if err != nil {
			return err
		}
		if err := tr.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d-sample trace to %s\n", tr.Len(), csvOut)
	}
	return nil
}

func run(tracePath, scaleName string, stride int, coldLim float64) error {
	if stride < 1 {
		return fmt.Errorf("-stride must be >= 1, got %d", stride)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	tr, err := dataset.ReadCSV(f, 60)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Printf("loaded %d samples (%d ACU + %d DC sensors)\n", tr.Len(), tr.Na(), tr.Nd())

	var sc experiment.Scale
	switch scaleName {
	case "ci":
		sc = experiment.CIScale()
	case "paper":
		sc = experiment.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q", scaleName)
	}
	fmt.Println("training TESLA's model on a fresh sweep...")
	art, err := experiment.Prepare(sc, false)
	if err != nil {
		return err
	}
	if art.Model.Na() != tr.Na() || art.Model.Nd() != tr.Nd() {
		return fmt.Errorf("trace sensors (%d/%d) do not match the model (%d/%d)",
			tr.Na(), tr.Nd(), art.Model.Na(), art.Model.Nd())
	}

	L := art.Model.Config().L
	var predT, truthT, predE, truthE []float64
	for t := L - 1; t+L < tr.Len(); t += stride {
		h, err := model.HistoryAt(tr, t, L)
		if err != nil {
			return err
		}
		p, err := art.Model.PredictSeq(h, tr.Setpoint[t+1:t+1+L])
		if err != nil {
			return err
		}
		for l := 1; l <= L; l++ {
			for k := 0; k < tr.Nd(); k++ {
				predT = append(predT, p.DCTemps.At(l-1, k))
				truthT = append(truthT, tr.DCTemps[k][t+l])
			}
		}
		predE = append(predE, p.EnergyKWh)
		truthE = append(truthE, tr.EnergyKWh(t+1, t+1+L))
	}
	if len(predE) == 0 {
		return fmt.Errorf("trace too short for horizon %d", L)
	}
	mapeT, err := stats.MAPE(predT, truthT)
	if err != nil {
		return err
	}
	mapeE, err := stats.MAPE(predE, truthE)
	if err != nil {
		return err
	}
	fmt.Printf("\nmodel accuracy on the replayed trace (%d windows):\n", len(predE))
	fmt.Printf("  DC temperature MAPE: %6.2f%%\n", mapeT)
	fmt.Printf("  cooling energy MAPE: %6.2f%%\n", mapeE)

	supCfg := safety.DefaultConfig(coldLim, art.TBConf.ACU.SetpointMinC, art.TBConf.ACU.SetpointMaxC)
	events, err := scanSensors(tr, supCfg)
	if err != nil {
		return err
	}
	fmt.Printf("\nsensor health (safety supervisor, limit %.1f°C): %d quarantines\n", coldLim, len(events))
	for i, e := range events {
		if i >= 10 {
			fmt.Printf("  ... %d more\n", len(events)-10)
			break
		}
		fmt.Printf("  sensor %-3d step %-6d %s\n", e.Sensor, e.Step, e.Detail)
	}
	return nil
}

// recordedSetpoints replays a trace's recorded set-points as a policy: at
// step t it commands the set-point the plant latched at t+1, so the
// supervisor's command-echo check sees exactly what was actuated.
type recordedSetpoints []float64

func (recordedSetpoints) Name() string { return "recorded" }

func (sp recordedSetpoints) Decide(_ *dataset.Trace, t int) float64 {
	if t+1 < len(sp) {
		return sp[t+1]
	}
	return sp[t]
}

// scanSensors replays the safety supervisor over a recorded trace, deciding
// at every index, and returns the sensor-quarantine events its probe
// validator raised.
func scanSensors(tr *dataset.Trace, cfg safety.Config) ([]safety.Event, error) {
	sup, err := safety.Wrap(recordedSetpoints(tr.Setpoint), cfg)
	if err != nil {
		return nil, err
	}
	var events []safety.Event
	sup.SetSink(func(e safety.Event) {
		if e.Kind == safety.EventQuarantine {
			events = append(events, e)
		}
	})
	for t := 0; t < tr.Len(); t++ {
		sup.Decide(tr, t)
	}
	return events, nil
}
