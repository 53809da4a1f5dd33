package fleet

import (
	"testing"

	"tesla/internal/gateway"
	"tesla/internal/modbus"
	"tesla/internal/testbed"
)

// TestGatewayActuationBitIdentical proves the field-bus hook contract: a
// room actuated through a REAL Modbus path — gateway write → TCP → device
// sim → bridge latch — with a per-step register poll produces exactly the
// trajectory of a plain in-process run that applies the same centidegree
// quantization. This is the invariant the sharded control plane's chaos
// tests lean on: quantization is the only observable difference the bus
// introduces, and Config.Quantize captures it entirely. The poll ledger
// must be exact too: one sample per control step, zero gaps.
func TestGatewayActuationBitIdentical(t *testing.T) {
	mk := func() Config {
		cfg := durableShortConfig(1, 93)
		cfg.Quantize = modbus.QuantizeTempC
		return cfg
	}
	ref, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}

	// The bus needs the plant, which exists only after NewRunner — the
	// hooks close over the pointer and the bus is attached before the
	// first Step, exactly the shard's late-binding order.
	var bus *gateway.FieldBus
	cfg := mk()
	cfg.Actuate = func(_ int, sp float64) error { return bus.Actuate(sp) }
	cfg.Publish = func(_ int, s testbed.Sample) { bus.Publish(s) }
	r, err := NewRunner(cfg, 0, nil, "bus-host")
	if err != nil {
		t.Fatal(err)
	}
	gw := gateway.New(gateway.Config{})
	t.Cleanup(func() { gw.Close() })
	if bus, err = gateway.AttachFieldBus(gw, "room-0", r.Plant(), gateway.PollerConfig{ColdLimitC: 22, PeriodS: 60}); err != nil {
		t.Fatal(err)
	}
	for !r.Done() {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}

	want := ref.Rooms[0]
	if res.TrajectoryHash != want.TrajectoryHash {
		t.Errorf("gateway-actuated trajectory hash %#x, want %#x — the bus is not transparent beyond quantization",
			res.TrajectoryHash, want.TrajectoryHash)
	}
	if res.CEkWh != want.CEkWh || res.MaxCold != want.MaxCold || res.MeanSp != want.MeanSp {
		t.Errorf("gateway-actuated metrics diverged:\n  got  %+v\n  want %+v", res, want)
	}

	seqs, ru := bus.Close()
	if ru.Samples != uint64(res.Steps) || ru.Gaps != 0 {
		t.Errorf("poll ledger: %d samples, %d gaps, want %d, 0", ru.Samples, ru.Gaps, res.Steps)
	}
	if seqs[0] != uint64(res.Steps) {
		t.Errorf("final poll seq %d, want %d (one sweep per control step)", seqs[0], res.Steps)
	}
}

// TestQuantizedRecoveryBitIdentical pins the replay half of the Quantize
// contract: recovery re-derives decisions through the same quantizer the
// live loop used, so a quantized run killed mid-horizon completes
// bit-identically with zero decision mismatches. Without quantization in
// the replay path the re-derived set-points differ from the logged ones
// in the third decimal and every downstream bit diverges.
func TestQuantizedRecoveryBitIdentical(t *testing.T) {
	mk := func() Config {
		cfg := durableShortConfig(2, 51)
		cfg.Quantize = modbus.QuantizeTempC
		return cfg
	}
	ref, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}

	cfg := mk()
	cfg.DataDir = t.TempDir()
	cfg.SnapshotEvery = 8
	if _, err := crashAt(cfg, 31); err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertRecoveredMatches(t, ref, got)
}
