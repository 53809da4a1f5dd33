package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tesla/internal/fleet"
	"tesla/internal/gateway"
	"tesla/internal/modbus"
)

// gatewayBenchRow is one cell of the devices × in-flight window sweep.
type gatewayBenchRow struct {
	Devices    int `json:"devices"`
	Window     int `json:"in_flight_window"`
	Generators int `json:"generators_per_device"`

	Attempts  uint64 `json:"attempts"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Dropped   uint64 `json:"dropped"`

	Reconnects   uint64 `json:"reconnects"`
	DialFailures uint64 `json:"dial_failures"`
	WireReads    uint64 `json:"wire_reads"`
	MergedReads  uint64 `json:"merged_reads"`

	ReqPerSec    float64 `json:"req_per_sec"`
	WallSeconds  float64 `json:"wall_seconds"`
	LatencyP50Ns int64   `json:"latency_p50_ns"`
	LatencyP99Ns int64   `json:"latency_p99_ns"`
	LatencyMaxNs int64   `json:"latency_max_ns"`
}

// gatewayBenchReport is the BENCH_gateway.json schema — the actuation-path
// baseline later PRs regress against.
type gatewayBenchReport struct {
	Generated string            `json:"generated"`
	OpsPerGen int               `json:"ops_per_generator"`
	Rows      []gatewayBenchRow `json:"rows"`
}

// runGatewayBench drives gateway + Modbus server pairs to saturation: every
// cell stands up one simulated ACU server per device, hammers each device
// from window-exceeding generators, and injects a mass disconnect on a
// tenth of the fleet mid-run — so the numbers include reconnect storms and
// window rejections, not just the sunny path.
func runGatewayBench(w io.Writer, devicesSpec, windowsSpec string, opsPerGen int, outPath string) error {
	devCounts, err := parseCounts(devicesSpec)
	if err != nil {
		return fmt.Errorf("-gwdevices: %w", err)
	}
	winCounts, err := parseCounts(windowsSpec)
	if err != nil {
		return fmt.Errorf("-gwwindows: %w", err)
	}
	if opsPerGen < 1 {
		return fmt.Errorf("-gwops must be >= 1, got %d", opsPerGen)
	}

	rep := gatewayBenchReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		OpsPerGen: opsPerGen,
	}
	fmt.Fprintf(w, "ACU gateway sweep: %d ops/generator, mass disconnect on 1/10 of devices mid-cell\n", opsPerGen)
	fmt.Fprintf(w, "  %7s %6s %8s %10s %9s %9s %8s %10s %8s\n",
		"devices", "window", "attempts", "req/s", "p50", "p99", "dropped", "reconnects", "merged")
	for _, devices := range devCounts {
		for _, window := range winCounts {
			row, err := runGatewayCell(devices, window, opsPerGen)
			if err != nil {
				return fmt.Errorf("gateway bench devices=%d window=%d: %w", devices, window, err)
			}
			rep.Rows = append(rep.Rows, row)
			fmt.Fprintf(w, "  %7d %6d %8d %10.0f %9s %9s %8d %10d %8d\n",
				devices, window, row.Attempts, row.ReqPerSec,
				time.Duration(row.LatencyP50Ns).Round(time.Microsecond),
				time.Duration(row.LatencyP99Ns).Round(time.Microsecond),
				row.Dropped, row.Reconnects, row.MergedReads)
		}
	}
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "  baseline written to %s\n", outPath)
	}
	return nil
}

// runGatewayCell measures one devices × window cell.
func runGatewayCell(devices, window, opsPerGen int) (gatewayBenchRow, error) {
	row := gatewayBenchRow{Devices: devices, Window: window}

	// One simulated ACU server per device.
	srvs := make([]*modbus.Server, devices)
	addrs := make([]string, devices)
	defer func() {
		for _, s := range srvs {
			if s != nil {
				s.Close()
			}
		}
	}()
	for i := range srvs {
		bank := modbus.NewMapBank()
		bank.SetHolding(modbus.RegSetpoint, modbus.EncodeTempC(23))
		bank.SetInput(modbus.RegInletTemp0, modbus.EncodeTempC(21.5))
		bank.SetInput(modbus.RegInletTemp1, modbus.EncodeTempC(22.5))
		bank.SetInput(modbus.RegPowerW, 4200)
		bank.SetInput(modbus.RegDuty, 500)
		srvs[i] = modbus.NewServer(bank)
		addr, err := srvs[i].Start("127.0.0.1:0")
		if err != nil {
			return row, err
		}
		addrs[i] = addr
	}

	gw := gateway.New(gateway.Config{
		Timeout:    time.Second,
		InFlight:   window,
		BackoffMin: 2 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
	})
	defer gw.Close()
	devs := make([]*gateway.Device, devices)
	for i := range devs {
		d, err := gw.Add(fmt.Sprintf("acu-%d", i), addrs[i])
		if err != nil {
			return row, err
		}
		devs[i] = d
	}

	// window+1 generators per device guarantee the window is exercised —
	// capped so a 1000-device cell stays within the 1-vCPU container's
	// goroutine budget.
	gens := window + 1
	if gens > 6 {
		gens = 6
	}
	row.Generators = gens

	var attempts atomic.Uint64
	latCh := make(chan []time.Duration, devices*gens)
	var wg sync.WaitGroup
	start := time.Now()
	for _, d := range devs {
		for g := 0; g < gens; g++ {
			wg.Add(1)
			go func(d *gateway.Device, g int) {
				defer wg.Done()
				lats := make([]time.Duration, 0, opsPerGen)
				for j := 0; j < opsPerGen; j++ {
					attempts.Add(1)
					t0 := time.Now()
					var err error
					switch (j + g) % 8 {
					case 7:
						err = d.WriteHolding(modbus.RegSetpoint, modbus.EncodeTempC(22+float64(j%4)))
					case 3:
						_, err = d.ReadHolding(modbus.RegSetpoint, 1)
					default:
						_, err = d.ReadInput(modbus.RegInletTemp0, 4)
					}
					if err == nil {
						lats = append(lats, time.Since(t0))
					}
				}
				latCh <- lats
			}(d, g)
		}
	}
	// Mid-cell chaos: a mass disconnect across a tenth of the fleet forces
	// the reconnect path under load.
	chaos := time.AfterFunc(50*time.Millisecond, func() {
		for i := 0; i < devices; i += 10 {
			srvs[i].DisconnectAll()
		}
	})
	wg.Wait()
	chaos.Stop()
	wall := time.Since(start)
	close(latCh)

	var all []time.Duration
	for lats := range latCh {
		all = append(all, lats...)
	}
	ls := fleet.ComputeLatencyStats(all)
	gs := gw.Stats()

	row.Attempts = attempts.Load()
	row.Completed = gs.Completed
	row.Failed = gs.Failed
	row.Dropped = gs.Dropped
	row.Reconnects = gs.Reconnects
	row.DialFailures = gs.DialFailures
	row.WireReads = gs.WireReads
	row.MergedReads = gs.MergedReads
	row.WallSeconds = wall.Seconds()
	if wall > 0 {
		row.ReqPerSec = float64(gs.Completed) / wall.Seconds()
	}
	row.LatencyP50Ns = ls.P50.Nanoseconds()
	row.LatencyP99Ns = ls.P99.Nanoseconds()
	row.LatencyMaxNs = ls.Max.Nanoseconds()

	// Exactness is an acceptance criterion, not a hope: every attempt is
	// accounted for as completed, failed, or dropped.
	if gs.Submitted+gs.Dropped != row.Attempts || gs.Submitted != gs.Completed+gs.Failed {
		return row, fmt.Errorf("accounting mismatch: attempts %d, submitted %d, completed %d, failed %d, dropped %d",
			row.Attempts, gs.Submitted, gs.Completed, gs.Failed, gs.Dropped)
	}
	return row, nil
}

// parseCounts parses a comma-separated list of positive ints ("1,4,16").
func parseCounts(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", spec)
	}
	return out, nil
}
