// Observability: deploy TESLA the way §4 describes — the machine room's
// telemetry is written as InfluxDB line protocol into the ingest pipeline's
// HTTP input, the controller reads it back through the time-series store's
// /query API, and the computed set-point travels to the ACU through a
// Modbus/TCP register write. Every hop crosses a real TCP socket on
// localhost.
//
//	go run ./examples/observability [-minutes 45]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"tesla"
	"tesla/internal/dataset"
	"tesla/internal/ingest"
	"tesla/internal/modbus"
	"tesla/internal/telemetry"
	"tesla/internal/testbed"
	"tesla/internal/workload"
)

func main() {
	minutes := flag.Int("minutes", 45, "closed-loop duration in minutes")
	flag.Parse()
	if err := run(*minutes); err != nil {
		log.Fatal(err)
	}
}

func run(minutes int) error {
	// Train TESLA's models first (plain in-process pipeline).
	sys, err := tesla.PrepareWithBaselines(tesla.ScaleCI, false)
	if err != nil {
		return err
	}
	art := sys.Artifacts()
	controller, err := art.NewTESLAPolicy(7)
	if err != nil {
		return err
	}

	// The "machine room": testbed + Modbus bridge exposing the ACU.
	tbCfg := testbed.DefaultConfig()
	tbCfg.Seed = 99
	tb, err := testbed.New(tbCfg)
	if err != nil {
		return err
	}
	tb.UseProfile(workload.NewDiurnal(workload.Medium, 43200, 99))

	bridge := modbus.NewACUBridge(tb)
	mbSrv := modbus.NewServer(bridge.Bank)
	mbAddr, err := mbSrv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer mbSrv.Close()

	// The observability stack: the ingest pipeline's line-protocol write
	// input and the store's read API, each on its own socket.
	db := telemetry.NewDB()
	writeIn := ingest.NewHTTPInput("127.0.0.1:0")
	pipe := ingest.NewService(ingest.Config{DB: db, GatherEvery: time.Hour})
	if err := pipe.Add(writeIn); err != nil {
		return err
	}
	if err := pipe.Start(); err != nil {
		return err
	}
	defer pipe.Stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go http.Serve(ln, telemetry.QueryHandler(db))
	defer ln.Close()
	store := &tsdb{write: "http://" + writeIn.Addr() + "/write", query: "http://" + ln.Addr().String() + "/query"}
	fmt.Printf("modbus ACU at %s, line-protocol writes at %s, queries at %s\n", mbAddr, writeIn.Addr(), ln.Addr())

	mbClient, err := modbus.Dial(mbAddr)
	if err != nil {
		return err
	}
	defer mbClient.Close()

	// The controller's local view of the telemetry, reconstructed from the
	// store — the producer/consumer decoupling of §4.
	view := dataset.NewTrace(tbCfg.SamplePeriodS, 2, 35)

	// Warm-up: one hour of fixed 23 °C so the model has history.
	if err := mbClient.WriteHolding(modbus.RegSetpoint, modbus.EncodeTempC(23)); err != nil {
		return err
	}
	for i := 0; i < 60; i++ {
		if err := stepOnce(tb, bridge, store, view); err != nil {
			return err
		}
	}

	fmt.Printf("closed loop for %d minutes...\n", minutes)
	var energyKWh float64
	for i := 0; i < minutes; i++ {
		sp := controller.Decide(view, view.Len()-1)
		// Execute through the Modbus register, exactly like the testbed
		// deployment writes the vendor ACU.
		if err := mbClient.WriteHolding(modbus.RegSetpoint, modbus.EncodeTempC(sp)); err != nil {
			return err
		}
		if err := stepOnce(tb, bridge, store, view); err != nil {
			return err
		}
		last := view.Len() - 1
		energyKWh += view.ACUPower[last] * tbCfg.SamplePeriodS / 3600
		if i%10 == 0 {
			fmt.Printf("  t=%2dmin setpoint=%5.2f°C inlet=%5.2f°C maxCold=%5.2f°C power=%4.2fkW\n",
				i, view.Setpoint[last], view.ACUTemps[0][last], view.MaxCold[last], view.ACUPower[last])
		}
	}
	st := pipe.Stats()
	fmt.Printf("done: %.2f kWh over %d minutes; %d lines ingested (%d dropped), %d points across %d series\n",
		energyKWh, minutes, st.Ingested, st.Dropped, db.Len(), len(db.Series()))
	return nil
}

// stepOnce advances the plant one control period and refreshes every data
// path: Modbus input registers, the TSDB, and the controller's local view
// (rebuilt from TSDB queries to prove the round trip).
func stepOnce(tb *testbed.Testbed, bridge *modbus.ACUBridge, store *tsdb, view *dataset.Trace) error {
	s := tb.Advance()
	bridge.Refresh(s)
	if err := store.writeSample(s); err != nil {
		return err
	}

	// Rebuild the newest sample from the store rather than trusting the
	// in-process value — the consumer side of the §4 pipeline.
	rebuilt := s.Clone()
	for i := range rebuilt.ACUTemps {
		v, err := store.at("acu_temp", fmt.Sprintf("sensor=%d,field=c", i), s.TimeS)
		if err != nil {
			return err
		}
		rebuilt.ACUTemps[i] = v
	}
	v, err := store.at("acu", "field=power_kw", s.TimeS)
	if err != nil {
		return err
	}
	rebuilt.ACUPowerKW = v
	view.Append(rebuilt)
	return nil
}

// tsdb is the collector's and the controller's view of the store: line
// protocol out, JSON points back.
type tsdb struct{ write, query string }

// writeSample posts one scrape of the room — ACU metrics and every
// temperature probe — as a line-protocol batch.
func (c *tsdb) writeSample(s testbed.Sample) error {
	var b strings.Builder
	fmt.Fprintln(&b, telemetry.FormatLine("acu", nil, map[string]float64{
		"power_kw": s.ACUPowerKW, "setpoint_c": s.SetpointC, "duty": s.ACUDuty,
	}, s.TimeS))
	for i, v := range s.ACUTemps {
		fmt.Fprintln(&b, telemetry.FormatLine("acu_temp", map[string]string{"sensor": fmt.Sprint(i)}, map[string]float64{"c": v}, s.TimeS))
	}
	for i, v := range s.DCTemps {
		fmt.Fprintln(&b, telemetry.FormatLine("dc_temp", map[string]string{"sensor": fmt.Sprint(i)}, map[string]float64{"c": v}, s.TimeS))
	}
	resp, err := http.Post(c.write, "text/plain", strings.NewReader(b.String()))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("line-protocol write: %s", resp.Status)
	}
	return nil
}

// at queries the single point of one series at time t.
func (c *tsdb) at(measurement, tags string, t float64) (float64, error) {
	resp, err := http.Get(fmt.Sprintf("%s?measurement=%s&tags=%s&from=%g&to=%g", c.query, measurement, tags, t, t))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("query %s{%s}: %s", measurement, tags, resp.Status)
	}
	var pts []telemetry.Point
	if err := json.NewDecoder(resp.Body).Decode(&pts); err != nil {
		return 0, err
	}
	if len(pts) != 1 {
		return 0, fmt.Errorf("expected 1 point for %s{%s} at t=%g, got %d", measurement, tags, t, len(pts))
	}
	return pts[0].Value, nil
}
