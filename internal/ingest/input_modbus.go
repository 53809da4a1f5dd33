package ingest

import (
	"fmt"
	"sync"

	"tesla/internal/gateway"
	"tesla/internal/telemetry"
)

// ModbusConfig tunes a ModbusInput.
type ModbusConfig struct {
	// Gateway is the device fleet to sweep. Required.
	Gateway *gateway.Gateway
	// Poller configures the underlying gateway.Poller (cold limit, period,
	// queue bounds, seq hand-off).
	Poller gateway.PollerConfig
	// Measurement names the emitted series (default "acu").
	Measurement string
}

// ModbusInput is the pull plugin over an ACU fleet. It re-resolves the
// gateway's device set on every Gather, since rooms (and their ACU devices)
// are hosted, migrated away and finished long after the ingest pipeline
// boots. When the set changes the poller is rebuilt over it, carrying each
// surviving device's sequence counter by device id and folding the outgoing
// poller's ledger into the cumulative counters, so continuing streams keep
// exact accounting across rebuilds. It owns a
// gateway.Poller — the existing sweep/queue/ingest pipeline with its exact
// per-device sequence accounting — rather than a bespoke poll loop, and on
// every Gather emits each freshly answered device's state as three points
// (setpoint_c, max_cold_c, power_kw) through pre-resolved series refs.
// Failed polls surface as sequence gaps in the rollup and are mirrored
// into the input's SeqGaps, so fleet loss is visible at the ingest layer
// without double counting.
type ModbusInput struct {
	cfg ModbusConfig

	// gatherMu serializes sweeps and is the ONLY lock held across device
	// I/O. The state lock below never spans PollOnce, so Stats() and
	// Poller() — and the daemon's /status and /metrics behind them —
	// answer instantly even while a sweep sits on a hung device waiting
	// out the wire timeout.
	gatherMu sync.Mutex

	mu          sync.Mutex
	started     bool
	sink        *Sink
	poller      *gateway.Poller
	devs        []*gateway.Device
	refs        [][3]telemetry.SeriesRef // per device: setpoint_c, max_cold_c, power_kw
	prevSamples []uint64
	prevGaps    uint64
	prevFails   uint64

	gathers uint64
	errors  uint64
	seqGaps uint64
}

// NewModbusInput builds the input; the poller is created at Start over the
// gateway's device set (possibly empty) and tracked from then on.
func NewModbusInput(cfg ModbusConfig) *ModbusInput {
	if cfg.Measurement == "" {
		cfg.Measurement = "acu"
	}
	return &ModbusInput{cfg: cfg}
}

// Name implements Input.
func (m *ModbusInput) Name() string { return "modbus" }

// Poller exposes the underlying poller (rollup, seq hand-off for shard
// migration). Valid after Start; it may be nil (no devices) and a later
// rebuild replaces it, so callers must not cache it across device-set
// changes.
func (m *ModbusInput) Poller() *gateway.Poller {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.poller
}

// Start implements Input: build the poller and resolve one series ref per
// device field, so the gather path appends without allocation.
func (m *ModbusInput) Start(sink *Sink) error {
	if m.cfg.Gateway == nil {
		return fmt.Errorf("modbus input: Gateway is required")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sink = sink
	m.started = true
	m.installLocked(m.cfg.Gateway.Devices(), m.cfg.Poller.StartSeqs)
	return nil
}

// installLocked builds the poller and series refs over devs. The caller
// holds m.mu and guarantees no sweep is in flight (Start, or Gather under
// gatherMu).
func (m *ModbusInput) installLocked(devs []*gateway.Device, startSeqs []uint64) {
	m.prevGaps, m.prevFails = 0, 0
	if len(devs) == 0 {
		m.poller, m.devs, m.refs, m.prevSamples = nil, nil, nil, nil
		return
	}
	pcfg := m.cfg.Poller
	pcfg.StartSeqs = startSeqs
	m.poller = gateway.NewPollerOver(devs, pcfg)
	m.devs = devs
	m.refs = make([][3]telemetry.SeriesRef, len(devs))
	m.prevSamples = make([]uint64, len(devs))
	db := m.sink.DB()
	for i, d := range devs {
		tags := func(field string) map[string]string {
			return map[string]string{"device": d.ID(), "field": field}
		}
		m.refs[i] = [3]telemetry.SeriesRef{
			db.Ref(m.cfg.Measurement, tags("setpoint_c")),
			db.Ref(m.cfg.Measurement, tags("max_cold_c")),
			db.Ref(m.cfg.Measurement, tags("power_kw")),
		}
	}
}

// syncDevicesLocked rebuilds the poller when the gateway's device set
// changed, folding the outgoing poller's final ledger into the cumulative
// counters and carrying per-device sequence counters by device id — a
// device that survives the change continues its stream with no duplicate
// and no phantom gap.
func (m *ModbusInput) syncDevicesLocked() {
	devs := m.cfg.Gateway.Devices()
	if sameDevices(m.devs, devs) {
		return
	}
	var carried map[string]uint64
	if m.poller != nil {
		m.foldLedgerLocked()
		seqs := m.poller.Seqs()
		carried = make(map[string]uint64, len(m.devs))
		for i, d := range m.devs {
			carried[d.ID()] = seqs[i]
		}
	}
	startSeqs := make([]uint64, len(devs))
	for i, d := range devs {
		startSeqs[i] = carried[d.ID()]
	}
	m.installLocked(devs, startSeqs)
}

func sameDevices(a, b []*gateway.Device) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// foldLedgerLocked moves the current poller's gap/failure deltas into the
// input's cumulative counters.
func (m *ModbusInput) foldLedgerLocked() {
	roll := m.poller.Rollup()
	m.seqGaps += roll.Gaps - m.prevGaps
	m.prevGaps = roll.Gaps
	_, fails := m.poller.Counts()
	m.errors += fails - m.prevFails
	m.prevFails = fails
}

// Gather implements Input: one sweep + drain, then emit every device that
// answered. Returns an error when any device failed this sweep (counted,
// not fatal — the service just tallies it).
func (m *ModbusInput) Gather(timeS float64) error {
	m.gatherMu.Lock()
	defer m.gatherMu.Unlock()

	m.mu.Lock()
	if !m.started {
		m.mu.Unlock()
		return fmt.Errorf("modbus input: not started")
	}
	m.gathers++
	m.syncDevicesLocked()
	p := m.poller
	m.mu.Unlock()
	if p == nil {
		return nil // no devices yet: nothing to sweep
	}

	// Device I/O happens with only gatherMu held.
	_, failed := p.PollOnce(timeS)
	p.DrainOnce()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.poller != p || m.sink == nil {
		// Stopped while the sweep was on the wire; its results die with
		// the detached poller.
		return nil
	}
	for i, agg := range p.RoomAggs() {
		if agg.Samples == m.prevSamples[i] {
			continue
		}
		m.prevSamples[i] = agg.Samples
		t := agg.LastTimeS
		m.sink.AddRef(m.refs[i][0], telemetry.Point{TimeS: t, Value: agg.LastSetpointC})
		m.sink.AddRef(m.refs[i][1], telemetry.Point{TimeS: t, Value: agg.LastMaxColdC})
		m.sink.AddRef(m.refs[i][2], telemetry.Point{TimeS: t, Value: agg.LastPowerKW})
	}
	m.foldLedgerLocked()
	if failed > 0 {
		return fmt.Errorf("modbus input: %d device(s) failed this sweep", failed)
	}
	return nil
}

// Stop implements Input. The gateway is owned by the caller, so there is
// nothing to tear down beyond detaching from it.
func (m *ModbusInput) Stop() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.started = false
	m.poller = nil
	m.devs = nil
	return nil
}

// Stats implements Input.
func (m *ModbusInput) Stats() InputStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return InputStats{
		Name:    "modbus",
		Gathers: m.gathers,
		Errors:  m.errors,
		SeqGaps: m.seqGaps,
	}
}
