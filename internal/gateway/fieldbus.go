package gateway

import (
	"fmt"
	"io"
	"sync"

	"tesla/internal/modbus"
	"tesla/internal/telemetry"
	"tesla/internal/testbed"
)

// FieldBus is one room's complete field path: the plant's register bridge,
// an in-process Modbus/TCP ACU device sim serving it, a device on a shared
// gateway dialing that sim, and a single-device poller. Actuation crosses
// the wire (gateway write → TCP → device sim → bridge latch into the plant)
// and every control step runs exactly one poll sweep, so the poller's
// per-device sequence ledger is the migratable record of what this host
// observed: the seqs Close returns are the hand-off token a successor
// resumes from (PollerConfig.StartSeqs).
type FieldBus struct {
	gw     *Gateway
	id     string
	bridge *modbus.ACUBridge
	srv    *modbus.Server
	dev    *Device
	poller *Poller

	once sync.Once
	seqs []uint64
	roll telemetry.Rollup
}

// AttachFieldBus boots a room's field path onto gw as device id, bridged to
// the plant tb. A migration hand-off token rides in pcfg.StartSeqs (nil for
// a fresh or failover placement, where the predecessor's ledger died with
// it).
func AttachFieldBus(gw *Gateway, id string, tb *testbed.Testbed, pcfg PollerConfig) (*FieldBus, error) {
	bridge := modbus.NewACUBridge(tb)
	srv := modbus.NewServer(bridge.Bank)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("gateway: field bus %s: %w", id, err)
	}
	dev, err := gw.Add(id, addr)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("gateway: field bus %s: %w", id, err)
	}
	return &FieldBus{
		gw: gw, id: id, bridge: bridge, srv: srv, dev: dev,
		poller: NewPollerOver([]*Device{dev}, pcfg),
	}, nil
}

// Actuate routes one set-point command over the wire; the device bridge
// latches the decoded value into the plant before this returns (writes
// are barriers in the device pipeline).
func (f *FieldBus) Actuate(spC float64) error {
	return f.dev.WriteHolding(modbus.RegSetpoint, modbus.EncodeTempC(spC))
}

// Publish refreshes the device sim's input registers from the step's
// sample and runs one poll sweep + drain — exactly one polled sample (or
// one exact seq gap) per control step, stamped with simulation time.
// Called only from the room's loop goroutine.
func (f *FieldBus) Publish(s testbed.Sample) {
	f.bridge.Refresh(s)
	f.poller.PollOnce(s.TimeS)
	f.poller.DrainOnce()
}

// Rollup snapshots the live poll ledger. Safe concurrently with Publish —
// the poller's ingestor is internally locked.
func (f *FieldBus) Rollup() telemetry.Rollup { return f.poller.Rollup() }

// Close flushes the poller, snapshots the hand-off token and final ledger,
// and tears the field path down (device off the gateway, sim stopped).
// Idempotent — every caller sees the same snapshot. Must not run
// concurrently with Actuate/Publish; callers tear down only after the
// room's loop goroutine has exited.
func (f *FieldBus) Close() (seqs []uint64, roll telemetry.Rollup) {
	f.once.Do(func() {
		for f.poller.DrainOnce() > 0 {
		}
		f.seqs = f.poller.Seqs()
		f.roll = f.poller.Rollup()
		f.gw.Remove(f.id)
		f.srv.Close()
	})
	return f.seqs, f.roll
}

// WriteMetrics emits the tesla_gateway_* series for one stats snapshot,
// with an optional label block ({shard="..."} on shards, none on a
// standalone daemon or the coordinator's fleet-wide sum).
func WriteMetrics(w io.Writer, labels string, gs Stats) {
	fmt.Fprintf(w, "# TYPE tesla_gateway_devices gauge\ntesla_gateway_devices%s %d\n", labels, gs.Devices)
	fmt.Fprintf(w, "# TYPE tesla_gateway_connected gauge\ntesla_gateway_connected%s %d\n", labels, gs.Connected)
	fmt.Fprintf(w, "# TYPE tesla_gateway_in_flight gauge\ntesla_gateway_in_flight%s %d\n", labels, gs.InFlight)
	fmt.Fprintf(w, "# TYPE tesla_gateway_requests_total counter\ntesla_gateway_requests_total%s %d\n", labels, gs.Submitted)
	fmt.Fprintf(w, "# TYPE tesla_gateway_completed_total counter\ntesla_gateway_completed_total%s %d\n", labels, gs.Completed)
	fmt.Fprintf(w, "# TYPE tesla_gateway_failed_total counter\ntesla_gateway_failed_total%s %d\n", labels, gs.Failed)
	fmt.Fprintf(w, "# TYPE tesla_gateway_dropped_total counter\ntesla_gateway_dropped_total%s %d\n", labels, gs.Dropped)
	fmt.Fprintf(w, "# TYPE tesla_gateway_reconnects_total counter\ntesla_gateway_reconnects_total%s %d\n", labels, gs.Reconnects)
	fmt.Fprintf(w, "# TYPE tesla_gateway_dial_failures_total counter\ntesla_gateway_dial_failures_total%s %d\n", labels, gs.DialFailures)
	fmt.Fprintf(w, "# TYPE tesla_gateway_wire_reads_total counter\ntesla_gateway_wire_reads_total%s %d\n", labels, gs.WireReads)
	fmt.Fprintf(w, "# TYPE tesla_gateway_merged_reads_total counter\ntesla_gateway_merged_reads_total%s %d\n", labels, gs.MergedReads)
	fmt.Fprintf(w, "# TYPE tesla_gateway_writes_total counter\ntesla_gateway_writes_total%s %d\n", labels, gs.Writes)
}
