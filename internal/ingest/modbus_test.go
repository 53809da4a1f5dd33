package ingest

import (
	"io"
	"math"
	"net"
	"testing"
	"time"

	"tesla/internal/gateway"
	"tesla/internal/modbus"
	"tesla/internal/telemetry"
	"tesla/internal/testbed"
)

// acuFixture is one simulated ACU behind a Modbus/TCP server.
type acuFixture struct {
	tb     *testbed.Testbed
	bridge *modbus.ACUBridge
	srv    *modbus.Server
	addr   string
}

func newACUFixture(t *testing.T) *acuFixture {
	t.Helper()
	tb, err := testbed.New(testbed.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bridge := modbus.NewACUBridge(tb)
	bridge.Refresh(tb.Advance())
	srv := modbus.NewServer(bridge.Bank)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &acuFixture{tb: tb, bridge: bridge, srv: srv, addr: addr}
}

// TestModbusInputEndToEnd: a gather sweep over a real Modbus server lands
// the device's decoded state in the TSDB under the per-field series, with
// the ledger exact.
func TestModbusInputEndToEnd(t *testing.T) {
	fix := newACUFixture(t)
	gw := gateway.New(gateway.Config{Timeout: time.Second})
	defer gw.Close()
	if _, err := gw.Add("acu0", fix.addr); err != nil {
		t.Fatal(err)
	}

	db := telemetry.NewDB()
	svc := NewService(Config{DB: db, GatherEvery: time.Hour})
	m := NewModbusInput(ModbusConfig{Gateway: gw, Poller: gateway.PollerConfig{ColdLimitC: 27, PeriodS: 60}})
	svc.Add(m)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()

	var last testbed.Sample
	for i := 0; i < 3; i++ {
		last = fix.tb.Advance()
		fix.bridge.Refresh(last)
		svc.GatherOnce(last.TimeS)
	}

	p, ok := db.Latest("acu", map[string]string{"device": "acu0", "field": "power_kw"})
	if !ok || math.Abs(p.Value-last.ACUPowerKW) > 0.001 {
		t.Fatalf("power_kw = %+v ok=%v, want %v", p, ok, last.ACUPowerKW)
	}
	if p.TimeS != last.TimeS {
		t.Fatalf("stamped %v, want %v", p.TimeS, last.TimeS)
	}
	sp, ok := db.Latest("acu", map[string]string{"device": "acu0", "field": "setpoint_c"})
	if !ok || math.Abs(sp.Value-last.SetpointC) > 0.01 {
		t.Fatalf("setpoint_c = %+v, want %v", sp, last.SetpointC)
	}
	if n := len(db.Query("acu", map[string]string{"device": "acu0", "field": "max_cold_c"}, 0, math.MaxFloat64)); n != 3 {
		t.Fatalf("stored %d max_cold_c points, want 3", n)
	}

	st := svc.Stats()
	if st.Attempts != st.Ingested+st.Dropped {
		t.Fatalf("ledger broken: %+v", st)
	}
	if st.Attempts != 9 { // 3 sweeps x 3 fields
		t.Fatalf("attempts = %d, want 9", st.Attempts)
	}
	is := svc.InputStats()[0]
	if is.SeqGaps != 0 || is.Errors != 0 {
		t.Fatalf("clean fleet reported loss: %+v", is)
	}
}

// TestModbusInputFailedPollIsSeqGap: a device cut off mid-run surfaces as
// sequence gaps at the ingest layer, and no stale points are emitted for
// the missed sweeps.
func TestModbusInputFailedPollIsSeqGap(t *testing.T) {
	fix := newACUFixture(t)
	gw := gateway.New(gateway.Config{
		Timeout:    200 * time.Millisecond,
		BackoffMin: 50 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
	})
	defer gw.Close()
	if _, err := gw.Add("acu0", fix.addr); err != nil {
		t.Fatal(err)
	}
	db := telemetry.NewDB()
	m := NewModbusInput(ModbusConfig{Gateway: gw, Poller: gateway.PollerConfig{ColdLimitC: 27, PeriodS: 60}})
	sink := NewSink(db)
	if err := m.Start(sink); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	s := fix.tb.Advance()
	fix.bridge.Refresh(s)
	if err := m.Gather(s.TimeS); err != nil {
		t.Fatal(err)
	}

	// Kill the server: subsequent sweeps fail and must be charged as gaps.
	fix.srv.Close()
	failed := 0
	for i := 0; i < 3; i++ {
		s = fix.tb.Advance()
		if err := m.Gather(s.TimeS); err != nil {
			failed++
		}
	}
	if failed != 3 {
		t.Fatalf("failed sweeps = %d, want 3", failed)
	}
	if st := m.Stats(); st.Errors != 3 {
		t.Fatalf("errors = %d, want 3", st.Errors)
	}

	// Gaps are observed when the NEXT sample arrives with a sequence jump —
	// restart the server and sweep until the device answers again.
	srv2 := modbus.NewServer(fix.bridge.Bank)
	if _, err := srv2.Start(fix.addr); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s = fix.tb.Advance()
		fix.bridge.Refresh(s)
		if err := m.Gather(s.TimeS); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("device never recovered")
		}
		time.Sleep(20 * time.Millisecond)
	}
	st := m.Stats()
	if st.SeqGaps < 3 {
		t.Fatalf("seq gaps = %d, want >= 3 (the dead sweeps)", st.SeqGaps)
	}
	if st.SeqGaps != st.Errors {
		t.Fatalf("gaps %d != failed polls %d — accounting must be exact", st.SeqGaps, st.Errors)
	}
	attempts, ingested, dropped := sink.Counts()
	if attempts != ingested || dropped != 0 {
		t.Fatalf("ledger %d/%d/%d: missed sweeps must not emit points", attempts, ingested, dropped)
	}
	if ingested != 6 { // 2 successful sweeps x 3 fields
		t.Fatalf("ingested %d, want 6", ingested)
	}
}

// TestModbusInputStatsResponsiveDuringHungSweep is the regression gate for
// the lock-over-I/O bug: Gather used to hold the input's state lock across
// the whole device sweep, so Stats()/Poller() — and /status and /metrics
// behind them — stalled for the full wire timeout whenever one device hung.
// A sweep stuck on a device that accepts but never answers must leave the
// introspection path instant.
func TestModbusInputStatsResponsiveDuringHungSweep(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c) // swallow requests, never answer
		}
	}()

	gw := gateway.New(gateway.Config{Timeout: 2 * time.Second})
	if _, err := gw.Add("hung0", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}

	db := telemetry.NewDB()
	svc := NewService(Config{DB: db, GatherEvery: time.Hour})
	m := NewModbusInput(ModbusConfig{Gateway: gw, Poller: gateway.PollerConfig{ColdLimitC: 27, PeriodS: 60}})
	svc.Add(m)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Gather(0) // blocks on the hung device until the wire timeout
	}()
	time.Sleep(100 * time.Millisecond) // let the sweep reach the wire

	start := time.Now()
	m.Stats()
	m.Poller()
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Errorf("Stats/Poller stalled %v behind a hung-device sweep; must answer instantly", el)
	}

	gw.Close() // interrupt the hung exchange so the sweep can finish
	<-done
	svc.Stop()
}

// TestModbusInputDynamicDeviceSet: the input starts over an empty gateway
// and tracks devices as they appear and leave — rooms are assigned and
// migrated away while the pipeline runs. A surviving device's sequence stream continues across every poller
// rebuild with no duplicate and no phantom gap.
func TestModbusInputDynamicDeviceSet(t *testing.T) {
	gw := gateway.New(gateway.Config{Timeout: time.Second})
	defer gw.Close()

	db := telemetry.NewDB()
	svc := NewService(Config{DB: db, GatherEvery: time.Hour})
	m := NewModbusInput(ModbusConfig{
		Gateway: gw,
		Poller:  gateway.PollerConfig{ColdLimitC: 27, PeriodS: 60},
	})
	svc.Add(m)
	if err := svc.Start(); err != nil {
		t.Fatalf("dynamic modbus input must start over an empty device set: %v", err)
	}
	defer svc.Stop()

	if err := m.Gather(0); err != nil {
		t.Fatalf("gather over no devices: %v", err)
	}

	fix0 := newACUFixture(t)
	if _, err := gw.Add("acu0", fix0.addr); err != nil {
		t.Fatal(err)
	}
	s0 := fix0.tb.Advance()
	fix0.bridge.Refresh(s0)
	if err := m.Gather(s0.TimeS); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Latest("acu", map[string]string{"device": "acu0", "field": "power_kw"}); !ok {
		t.Fatal("acu0 not ingested after appearing dynamically")
	}

	fix1 := newACUFixture(t)
	if _, err := gw.Add("acu1", fix1.addr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		sa := fix0.tb.Advance()
		fix0.bridge.Refresh(sa)
		sb := fix1.tb.Advance()
		fix1.bridge.Refresh(sb)
		if err := m.Gather(sa.TimeS); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := db.Latest("acu", map[string]string{"device": "acu1", "field": "power_kw"}); !ok {
		t.Fatal("acu1 not ingested after appearing dynamically")
	}
	// acu0 was swept once alone and twice alongside acu1 — its counter
	// carried across the rebuild, so no seq restarted and no gap appeared.
	if seqs := m.Poller().Seqs(); seqs[0] != 3 || seqs[1] != 2 {
		t.Fatalf("seqs after grow rebuild %v, want [3 2]", seqs)
	}
	if is := m.Stats(); is.SeqGaps != 0 || is.Errors != 0 {
		t.Fatalf("grow rebuild charged phantom loss: %+v", is)
	}

	// acu0 leaves (its room migrated away): only acu1 keeps being swept,
	// still with exact accounting.
	gw.Remove("acu0")
	s := fix1.tb.Advance()
	fix1.bridge.Refresh(s)
	if err := m.Gather(s.TimeS); err != nil {
		t.Fatal(err)
	}
	is := m.Stats()
	if is.SeqGaps != 0 || is.Errors != 0 {
		t.Fatalf("shrink rebuild charged phantom loss: %+v", is)
	}
	if is.Gathers != 5 {
		t.Fatalf("gathers = %d, want 5", is.Gathers)
	}
	if seqs := m.Poller().Seqs(); len(seqs) != 1 || seqs[0] != 3 {
		t.Fatalf("seqs after shrink rebuild %v, want [3]", seqs)
	}
}
