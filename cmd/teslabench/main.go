// Command teslabench regenerates the tables and figures of the paper's
// evaluation section on the simulated testbed. Tables print to stdout;
// figures render as ASCII charts and are optionally exported as CSV.
//
// Usage:
//
//	teslabench -all                      # every table and figure
//	teslabench -table 5 -hours 12        # just Table 5
//	teslabench -fig 3 -out figures/      # Figure 3 + CSV export
//	teslabench -bo                       # BO surrogate hot-path benchmarks + BENCH_bo.json
//	teslabench -wal                      # durable-store benchmarks + BENCH_wal.json
//	teslabench -controlplane             # control-plane chaos sweep + BENCH_controlplane.json
//	teslabench -ingest                   # telemetry ingest pipeline + BENCH_ingest.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"tesla/internal/experiment"
	"tesla/internal/parallel"
	"tesla/internal/workload"
)

func main() {
	scale := flag.String("scale", "ci", "training scale: ci|paper")
	table := flag.Int("table", 0, "regenerate one table (3, 4 or 5)")
	fig := flag.Int("fig", 0, "regenerate one figure (2, 3, 4, 8, 9, 10, 11 or 12)")
	all := flag.Bool("all", false, "regenerate everything")
	hours := flag.Float64("hours", 12, "end-to-end evaluation window (Table 5, Figures 9-12)")
	out := flag.String("out", "", "directory for figure CSV exports")
	report := flag.String("report", "", "write a markdown evaluation report (tables + ablations + fault matrix) to this path")
	faultMatrix := flag.Bool("faultmatrix", false, "run the fault-matrix sweep (supervised TESLA vs every fault class)")
	boBench := flag.Bool("bo", false, "benchmark the BO surrogate hot path (fit/posterior/acquisition/optimize)")
	boOut := flag.String("boout", "BENCH_bo.json", "JSON baseline path for -bo (empty disables)")
	walBench := flag.Bool("wal", false, "benchmark the durable store (WAL append, snapshot write, recovery)")
	walOut := flag.String("walout", "BENCH_wal.json", "JSON baseline path for -wal (empty disables)")
	gwBench := flag.Bool("gateway", false, "drive the ACU gateway to saturation (devices × in-flight window sweep)")
	gwDevices := flag.String("gwdevices", "250,1000", "comma-separated device counts for -gateway")
	gwWindows := flag.String("gwwindows", "4,16", "comma-separated in-flight windows for -gateway")
	gwOps := flag.Int("gwops", 20, "requests per generator per cell for -gateway")
	gwOut := flag.String("gwout", "BENCH_gateway.json", "JSON baseline path for -gateway (empty disables)")
	ingestBench := flag.Bool("ingest", false, "drive the telemetry ingest pipeline (append path, wire decode, streaming subscribe, tier identity)")
	ingestSamples := flag.Uint64("ingestsamples", 4_000_000, "append-path samples for -ingest")
	ingestOut := flag.String("ingestout", "BENCH_ingest.json", "JSON baseline path for -ingest (empty disables)")
	cpBench := flag.Bool("controlplane", false, "chaos-sweep the sharded control plane (shard-kill failover + live migration latencies)")
	cpRooms := flag.Int("cprooms", 4, "fleet size for -controlplane")
	cpTrials := flag.Int("cptrials", 5, "failover and migration trials for -controlplane")
	cpGateway := flag.Bool("cpgateway", false, "run -controlplane trials with per-shard Modbus field buses (wire-actuated rooms, seq hand-off on migration)")
	cpOut := flag.String("cpout", "BENCH_controlplane.json", "JSON baseline path for -controlplane (empty disables)")
	schedBench := flag.Bool("scheduler", false, "sweep the fleet job scheduler (rooms × policy × mode) with a joint-objective non-regression gate")
	schedRooms := flag.String("schedrooms", "3,6", "comma-separated room counts for -scheduler")
	schedMinutes := flag.Int("schedminutes", 30, "evaluated control steps per room for -scheduler")
	schedOut := flag.String("schedout", "BENCH_scheduler.json", "JSON baseline path for -scheduler (empty disables)")
	flag.Parse()

	// The standalone harnesses need no trained models. Each selected one runs,
	// in this order, before the (expensive) table/figure pipeline spins up.
	harnesses := []struct {
		on  bool
		run func() error
	}{
		{*schedBench, func() error { return runSchedBench(os.Stdout, *schedRooms, *schedMinutes, 13, *schedOut) }},
		{*ingestBench, func() error { return runIngestBench(os.Stdout, *ingestSamples, *ingestOut) }},
		{*cpBench, func() error { return runControlplaneBench(os.Stdout, *cpRooms, *cpTrials, *cpGateway, *cpOut) }},
		{*gwBench, func() error { return runGatewayBench(os.Stdout, *gwDevices, *gwWindows, *gwOps, *gwOut) }},
		{*walBench, func() error { return runWALBench(os.Stdout, *walOut) }},
		{*boBench, func() error { return runBOBench(os.Stdout, *boOut) }},
	}
	paper := *all || *table != 0 || *fig != 0 || *report != "" || *faultMatrix
	selected := paper
	for _, h := range harnesses {
		selected = selected || h.on
	}
	if !selected {
		flag.Usage()
		os.Exit(2)
	}
	for _, h := range harnesses {
		if h.on {
			exitOn(h.run())
		}
	}
	if paper {
		exitOn(run(*scale, *table, *fig, *all, *hours, *out, *report, *faultMatrix))
	}
}

// exitOn reports a harness failure and exits non-zero; nil is a no-op.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "teslabench:", err)
		os.Exit(1)
	}
}

type generator struct {
	art   *experiment.Artifacts
	hours float64
	out   string
}

func run(scaleName string, table, fig int, all bool, hours float64, out, reportPath string, faultMatrix bool) error {
	var sc experiment.Scale
	switch scaleName {
	case "ci":
		sc = experiment.CIScale()
	case "paper":
		sc = experiment.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q", scaleName)
	}
	needWang := all || table == 3 || reportPath != ""
	fmt.Printf("preparing models at %s scale...\n", scaleName)
	start := time.Now()
	art, err := experiment.Prepare(sc, needWang)
	if err != nil {
		return err
	}
	fmt.Printf("prepared in %v\n\n", time.Since(start).Round(time.Millisecond))

	g := &generator{art: art, hours: hours, out: out}
	jobs := []struct {
		table int
		fig   int
		run   func(w io.Writer) error
	}{
		{3, 0, g.table3},
		{4, 0, g.table4},
		{5, 0, g.table5},
		{0, 2, g.figure2},
		{0, 3, g.figure3},
		{0, 4, g.figure4},
		{0, 8, g.figure8},
		{0, 9, func(w io.Writer) error { return g.policyFigure(w, "tesla", "fig9") }},
		{0, 10, func(w io.Writer) error { return g.policyFigure(w, "fixed", "fig10") }},
		{0, 11, func(w io.Writer) error { return g.policyFigure(w, "lazic", "fig11") }},
		{0, 12, func(w io.Writer) error { return g.policyFigure(w, "tsrl", "fig12") }},
	}
	var matched []func(w io.Writer) error
	for _, j := range jobs {
		if all || (table != 0 && j.table == table) || (fig != 0 && j.fig == fig) {
			matched = append(matched, j.run)
		}
	}
	// The matched generators are independent simulations; fan them out and
	// print their renderings in job order so -all output stays stable.
	outputs, err := parallel.MapErr(0, len(matched), func(i int) (*bytes.Buffer, error) {
		var buf bytes.Buffer
		if err := matched[i](&buf); err != nil {
			return nil, err
		}
		return &buf, nil
	})
	if err != nil {
		return err
	}
	for _, buf := range outputs {
		if _, err := io.Copy(os.Stdout, buf); err != nil {
			return err
		}
	}
	if faultMatrix {
		fm, err := experiment.RunFaultMatrix(g.art, workload.Medium, hours*3600, 17)
		if err != nil {
			return err
		}
		fmt.Println(fm)
	}
	if reportPath != "" {
		if err := g.writeReport(scaleName, reportPath); err != nil {
			return err
		}
	} else if len(matched) == 0 && !faultMatrix {
		return fmt.Errorf("nothing matched -table %d -fig %d", table, fig)
	}
	return nil
}

// writeReport runs the full evaluation (tables, ablations, fault matrix)
// and renders it as markdown.
func (g *generator) writeReport(scaleName, path string) error {
	fmt.Printf("building report %s...\n", path)
	t3, err := experiment.Table3(g.art, 9)
	if err != nil {
		return err
	}
	t4, err := experiment.Table4(g.art, 9)
	if err != nil {
		return err
	}
	t5cfg := experiment.DefaultTable5Config()
	t5cfg.EvalS = g.hours * 3600
	t5, err := experiment.Table5(g.art, t5cfg)
	if err != nil {
		return err
	}
	study, err := experiment.RunAblations(g.art, workload.Medium, g.hours*3600, 31)
	if err != nil {
		return err
	}
	matrix, err := experiment.RunFaultMatrix(g.art, workload.Medium, g.hours*3600, 17)
	if err != nil {
		return err
	}
	sched, err := experiment.RunFleetSchedulingStudy(g.art, 0, g.hours*3600, 11)
	if err != nil {
		return err
	}
	rep := &experiment.Report{
		ScaleName: scaleName,
		Generated: time.Now(),
		Table3:    &t3, Table4: &t4, Table5: &t5,
		Study: &study, Matrix: &matrix, Sched: sched,
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := rep.WriteMarkdown(f); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", path)
	return nil
}

func (g *generator) table3(w io.Writer) error {
	res, err := experiment.Table3(g.art, 9)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, res)
	return nil
}

func (g *generator) table4(w io.Writer) error {
	res, err := experiment.Table4(g.art, 9)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, res)
	return nil
}

func (g *generator) table5(w io.Writer) error {
	cfg := experiment.DefaultTable5Config()
	cfg.EvalS = g.hours * 3600
	res, err := experiment.Table5(g.art, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, res)
	return nil
}

func (g *generator) emit(w io.Writer, figs ...*experiment.Figure) error {
	for _, f := range figs {
		if err := f.RenderASCII(w, 72, 14); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if g.out != "" {
			if err := os.MkdirAll(g.out, 0o755); err != nil {
				return err
			}
			path := filepath.Join(g.out, f.ID+".csv")
			file, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := f.WriteCSV(file); err != nil {
				file.Close()
				return err
			}
			if err := file.Close(); err != nil {
				return err
			}
			fmt.Fprintf(w, "  exported %s\n\n", path)
		}
	}
	return nil
}

func (g *generator) figure2(w io.Writer) error {
	f, err := experiment.Figure2(3)
	if err != nil {
		return err
	}
	return g.emit(w, f)
}

func (g *generator) figure3(w io.Writer) error {
	fa, fb, err := experiment.Figure3(4)
	if err != nil {
		return err
	}
	return g.emit(w, fa, fb)
}

func (g *generator) figure4(w io.Writer) error {
	fa, fb, err := experiment.Figure4(5)
	if err != nil {
		return err
	}
	return g.emit(w, fa, fb)
}

func (g *generator) figure8(w io.Writer) error {
	figs, err := experiment.Figure8(g.art, g.hours*3600, 7)
	if err != nil {
		return err
	}
	return g.emit(w, figs...)
}

func (g *generator) policyFigure(w io.Writer, name, id string) error {
	p, err := g.art.NewPolicy(name, 9)
	if err != nil {
		return err
	}
	figs, m, err := experiment.PolicyFigures(p, id, g.hours*3600, 9)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, m)
	return g.emit(w, figs...)
}
