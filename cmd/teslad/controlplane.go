package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"tesla/internal/controlplane"
	"tesla/internal/fleet"
	"tesla/internal/telemetry"
)

// cpOptions carries the control-plane role flags from main.
type cpOptions struct {
	role        string // "coordinator" or "shard"
	id          string // shard identity (-role shard)
	coordinator string // coordinator base URL the shard reports to
	advertise   string // base URL the coordinator dials this shard back on
	stepDelay   time.Duration
	inputs      string // -inputs spec: telemetry ingest pipeline on a shard
	gateway     bool   // -gateway: per-room Modbus field bus on a shard
	ingOpts     ingestOptions
}

// runControlPlane dispatches -role coordinator|shard. Flag validation runs
// before the fleet config is built so a bad invocation fails fast instead
// of after model training.
func runControlPlane(ctx context.Context, listen string, rooms, minutes int, seed uint64, policyName string, dur durOptions, cp cpOptions) error {
	switch cp.role {
	case "coordinator":
	case "shard":
		if cp.id == "" {
			return fmt.Errorf("-role shard needs -id")
		}
		if dur.dir == "" {
			return fmt.Errorf("-role shard needs -datadir (the shard's durable root; shards sharing a root get failover recovery)")
		}
	default:
		return fmt.Errorf("unknown role %q (want coordinator or shard)", cp.role)
	}
	fcfg, err := fleetConfig(rooms, minutes, seed, policyName, dur)
	if err != nil {
		return err
	}
	if cp.role == "coordinator" {
		return runCoordinator(ctx, listen, fcfg, seed)
	}
	return runShard(ctx, listen, fcfg, seed, dur, cp)
}

// serveHandler starts an HTTP server for a control-plane role and returns
// the bound listener, an error channel and a drain func.
func serveHandler(listen string, h http.Handler) (net.Listener, chan error, func(), error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, nil, nil, err
	}
	srv := &http.Server{Handler: h}
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Serve(ln) }()
	drain := func() {
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shCtx)
	}
	return ln, srvErr, drain, nil
}

// runCoordinator runs the placement/liveness side of the control plane: it
// serves /register, /heartbeat, /fleet, /shards, /migrate, /healthz and
// /metrics, places rooms on registered shards via the consistent-hash ring,
// and re-places them when shards die. It exits when every room of the fleet
// has finished, or on SIGINT/SIGTERM.
func runCoordinator(ctx context.Context, listen string, fcfg fleet.Config, seed uint64) error {
	coord, err := controlplane.NewCoordinator(controlplane.CoordinatorConfig{
		Fleet: fcfg,
		Seed:  seed,
	})
	if err != nil {
		return err
	}
	ln, srvErr, drain, err := serveHandler(listen, coord.Handler())
	if err != nil {
		return err
	}
	defer drain()
	coord.Start()
	defer coord.Stop()
	fmt.Printf("teslad: coordinator for %d rooms at http://%s — shards register with -coordinator http://%s\n",
		len(fcfg.Rooms), ln.Addr(), ln.Addr())

	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	lastDone := -1
	for {
		select {
		case <-ctx.Done():
			fmt.Println("teslad: signal received, coordinator shutting down")
			return nil
		case err := <-srvErr:
			return fmt.Errorf("coordinator endpoint: %w", err)
		case <-tick.C:
		}
		v := coord.Fleet()
		if v.Done != lastDone {
			lastDone = v.Done
			fmt.Printf("teslad: fleet %d/%d rooms done, %d placed, %d unplaced, %d shards\n",
				v.Done, v.Rooms, v.Placed, v.Unplaced, len(v.Shards))
		}
		if v.Done == v.Rooms {
			c := coord.Counters()
			fmt.Printf("teslad: fleet complete — %d samples, %.2f kWh, %d violation minutes; %d failovers (%d rooms), %d/%d migrations ok/failed, %d fenced beats\n",
				v.Rollup.Samples, v.Rollup.CoolingKWh, v.Rollup.ViolationMin,
				c.Failovers, c.RoomFailovers, c.MigrationsOK, c.MigrationsFailed, c.FencedHeartbeats)
			return nil
		}
	}
}

// runShard runs a room-hosting worker: it serves the internal shard API
// (/assign, /drain, /bundle, /resume, /rooms, /healthz, /metrics), registers
// with the coordinator when one is configured, and keeps stepping its rooms
// whether or not the coordinator stays reachable. SIGINT/SIGTERM drains
// every hosted room (checkpoint + close, locks released) so the rooms can be
// re-hosted elsewhere.
func runShard(ctx context.Context, listen string, fcfg fleet.Config, seed uint64, dur durOptions, cp cpOptions) error {
	shCfg := controlplane.ShardConfig{
		ID:          cp.id,
		Fleet:       fcfg,
		DataDir:     dur.dir,
		StepDelay:   cp.stepDelay,
		Coordinator: cp.coordinator,
		Advertise:   cp.advertise,
		Seed:        seed,
		FieldBus:    cp.gateway,
	}
	sh, err := controlplane.NewShard(shCfg)
	if err != nil {
		return err
	}
	// A shard's ingest ledgers ride every heartbeat into the coordinator's
	// rollup; with -gateway, "modbus" sweeps the hosted rooms' ACU devices.
	if cp.inputs != "" {
		db := telemetry.NewDBWithRetention(telemetry.RetentionConfig{})
		ing, err := startIngest(db, cp.inputs, sh.Gateway(), fcfg.ColdLimitC, fcfg.Testbed.SamplePeriodS, nil, cp.ingOpts)
		if err != nil {
			return fmt.Errorf("starting shard ingest pipeline: %w", err)
		}
		defer ing.Stop()
		sh.SetIngestStats(ing.Stats)
		fmt.Printf("teslad: shard %s ingest pipeline running (%s)\n", cp.id, cp.inputs)
	}
	ln, srvErr, drain, err := serveHandler(listen, sh.Handler())
	if err != nil {
		return err
	}
	defer drain()
	if cp.coordinator != "" && cp.advertise == "" {
		// Default the advertise URL to the bound address; override with
		// -advertise when the coordinator must dial back through NAT/proxies.
		sh.SetAdvertise(fmt.Sprintf("http://%s", ln.Addr()))
	}
	sh.Start()
	bus := ""
	if cp.gateway {
		bus = " [modbus field bus]"
	}
	if cp.coordinator != "" {
		fmt.Printf("teslad: shard %s%s at http://%s reporting to %s\n", cp.id, bus, ln.Addr(), cp.coordinator)
	} else {
		fmt.Printf("teslad: shard %s%s at http://%s (autonomous — assign rooms via POST /assign)\n", cp.id, bus, ln.Addr())
	}

	select {
	case <-ctx.Done():
		fmt.Printf("teslad: signal received, shard %s draining hosted rooms\n", cp.id)
	case err := <-srvErr:
		return fmt.Errorf("shard endpoint: %w", err)
	}
	sh.Stop()
	r := sh.Rollup()
	fmt.Printf("teslad: shard %s drained — %d rooms seen, %d samples ingested (%d gaps), %.2f kWh, %d fenced assignments\n",
		cp.id, r.Rooms, r.Samples, r.Gaps, r.CoolingKWh, sh.FencedRooms())
	return nil
}
