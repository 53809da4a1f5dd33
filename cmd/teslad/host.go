package main

import (
	"context"
	"errors"
	"sync"
	"time"

	"tesla/internal/fleet"
	"tesla/internal/gateway"
	"tesla/internal/modbus"
	"tesla/internal/parallel"
	"tesla/internal/telemetry"
	"tesla/internal/testbed"
)

// host runs a fleet's rooms the way a control-plane shard does: one
// fleet.Runner per room, stepped by its own goroutine and actuated over its
// own field bus on one shared gateway. Set-points are quantized to the
// register's centidegrees, so WAL replay re-derives exactly what the wire
// executed and every restart is the Runner's bit-identical recovery.
type host struct {
	gw      *gateway.Gateway
	buses   []*gateway.FieldBus
	runners []*fleet.Runner
	ing     *telemetry.Ingestor
	op      *operator
}

// newHost builds, recovers and warms up every room of cfg (concurrently),
// then attaches each room's field bus. Warm-up and recovery replay never
// actuate, so binding the bus after NewRunner is safe.
func newHost(cfg fleet.Config, op *operator) (*host, error) {
	n := len(cfg.Rooms)
	h := &host{gw: gateway.New(gateway.Config{Timeout: 2 * time.Second}), buses: make([]*gateway.FieldBus, n), op: op}
	cfg.Quantize = modbus.QuantizeTempC
	cfg.Actuate = func(i int, spC float64) error { return h.buses[i].Actuate(spC) }
	cfg.Publish = func(i int, s testbed.Sample) { h.buses[i].Publish(s) }
	queues := make([]*telemetry.Queue, n)
	var err error
	h.runners, err = parallel.MapErr(cfg.Workers, n, func(i int) (*fleet.Runner, error) {
		queues[i] = cfg.NewQueue()
		return fleet.NewRunner(cfg, i, queues[i], "teslad")
	})
	for i, r := range h.runners {
		if err != nil || r == nil {
			break
		}
		h.buses[i], err = gateway.AttachFieldBus(h.gw, r.Name(), r.Plant(), gateway.PollerConfig{
			ColdLimitC: cfg.ColdLimitC, PeriodS: cfg.Testbed.SamplePeriodS,
		})
	}
	if err != nil {
		h.abandon()
		return nil, err
	}
	h.ing = telemetry.NewIngestor(queues, cfg.ColdLimitC, cfg.Testbed.SamplePeriodS, 0)
	for i, r := range h.runners {
		op.watch(i, r)
	}
	op.ing, op.gw = h.ing, h.gw
	return h, nil
}

// step executes one control step of room i and publishes its snapshot.
// Only room i's loop goroutine may call it.
func (h *host) step(i int) error {
	if err := h.runners[i].Step(); err != nil {
		return err
	}
	h.op.publish(i, h.runners[i])
	return nil
}

// run steps every room on its own goroutine, pausing pace between steps,
// until its horizon ends, ctx is cancelled or a sibling fails. Every exit
// finishes or drains the room — a checkpoint and a synced WAL stay behind.
// Drained rooms leave a zero RoomResult.
func (h *host) run(ctx context.Context, pace time.Duration) ([]fleet.RoomResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stopIng := make(chan struct{})
	var ingG parallel.Group
	ingG.Go(func() { h.ing.Run(stopIng, time.Millisecond) })

	results := make([]fleet.RoomResult, len(h.runners))
	errs := make([]error, len(h.runners))
	var wg sync.WaitGroup
	for i, r := range h.runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			for err == nil && !r.Done() && ctx.Err() == nil {
				if err = h.step(i); err == nil && pace > 0 {
					sleepCtx(ctx, pace)
				}
			}
			if err == nil && r.Done() {
				results[i], err = r.Finish()
			} else {
				_, derr := r.Drain()
				err = errors.Join(err, derr)
			}
			if err != nil {
				errs[i] = err
				cancel()
			}
		}()
	}
	wg.Wait()
	close(stopIng)
	ingG.Wait()
	h.closeBuses()
	return results, errors.Join(errs...)
}

// abandon drops every room the way a dying process would: stores closed
// without a flush, field buses torn down.
func (h *host) abandon() {
	for _, r := range h.runners {
		if r != nil {
			r.Abandon()
		}
	}
	h.closeBuses()
}

func (h *host) closeBuses() {
	for _, b := range h.buses {
		if b != nil {
			b.Close()
		}
	}
	h.gw.Close()
}
