package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tesla/internal/gateway"
	"tesla/internal/testbed"
)

// TestHandlersConcurrentWithUpdates hammers /status and /metrics while the
// control loop's update path mutates the snapshot — run under -race this is
// the daemon's data-race regression test.
func TestHandlersConcurrentWithUpdates(t *testing.T) {
	o := newOperator([]string{"room-0", "room-1"})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			o.update(i%2, func(st *roomStatus) {
				st.StepMinutes = i
				st.SetpointC = 23 + float64(i%5)
				st.EnergyKWh += 0.01
				st.Violations = i / 10
			})
		}
	}()

	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec := httptest.NewRecorder()
				o.handleStatus(rec, httptest.NewRequest("GET", "/status", nil))
				var st roomStatus
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
					t.Errorf("bad /status body: %v", err)
					return
				}
				rec = httptest.NewRecorder()
				o.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
				if !strings.Contains(rec.Body.String(), "tesla_setpoint_celsius") {
					t.Errorf("metrics missing gauge: %q", rec.Body.String())
					return
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handlers deadlocked against updates")
	}
}

func TestStatusSnapshotIsConsistent(t *testing.T) {
	o := newOperator([]string{"room-0"})
	o.update(0, func(st *roomStatus) {
		st.StepMinutes = 42
		st.SetpointC = 24.5
		st.EnergyKWh = 3.25
	})
	rooms, _ := o.snapshot()
	st := rooms[0]
	if st.StepMinutes != 42 || st.SetpointC != 24.5 || st.EnergyKWh != 3.25 {
		t.Fatalf("snapshot = %+v", st)
	}
}

func TestSleepCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if sleepCtx(ctx, time.Minute) {
		t.Fatal("cancelled sleep reported a full pause")
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancelled sleep still slept")
	}
	if !sleepCtx(context.Background(), time.Millisecond) {
		t.Fatal("uncancelled sleep did not complete")
	}
}

// TestDaemonSurfacesGatewayHealth: with a gateway attached, /status carries
// the gateway block and /metrics the tesla_gateway_* series.
func TestDaemonSurfacesGatewayHealth(t *testing.T) {
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gw := gateway.New(gateway.Config{Timeout: time.Second})
	defer gw.Close()
	bus, err := gateway.AttachFieldBus(gw, "room-0", tb, gateway.PollerConfig{ColdLimitC: coldLimitC, PeriodS: 60})
	if err != nil {
		t.Fatal(err)
	}
	defer bus.Close()
	if err := bus.Actuate(24); err != nil {
		t.Fatal(err)
	}

	o := newOperator([]string{"room-0"})
	o.gw = gw
	rec := httptest.NewRecorder()
	o.handleStatus(rec, httptest.NewRequest("GET", "/status", nil))
	var body struct {
		Gateway *gateway.Stats `json:"gateway"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Gateway == nil || body.Gateway.Devices != 1 || body.Gateway.Writes != 1 {
		t.Fatalf("gateway block = %+v", body.Gateway)
	}

	rec = httptest.NewRecorder()
	o.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := rec.Body.String()
	for _, want := range []string{
		"tesla_gateway_devices 1",
		"tesla_gateway_connected 1",
		"tesla_gateway_writes_total 1",
		"tesla_gateway_dropped_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}
