package fleet

import (
	"fmt"
	"testing"
)

// BenchmarkFleetStep measures fleet throughput in control steps per second:
// each op is one control step in every room (supervised policy decision +
// one minute of plant physics + telemetry push). Rooms fan out over
// GOMAXPROCS workers, in memory: no WAL, no field bus. The end-to-end
// baseline with both is the benchmark module's shard-modelfree workload.
func BenchmarkFleetStep(b *testing.B) {
	for _, rooms := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("rooms=%d", rooms), func(b *testing.B) {
			cfg := DefaultConfig(rooms, 13, seededFixed)
			cfg.WarmupS = 1800
			cfg.EvalS = float64(b.N) * cfg.Testbed.SamplePeriodS
			b.ResetTimer()
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if res.TotalSteps != rooms*b.N {
				b.Fatalf("executed %d steps, want %d", res.TotalSteps, rooms*b.N)
			}
			b.ReportMetric(res.StepsPerSec, "steps/s")
			b.ReportMetric(float64(res.Latency.P99.Nanoseconds()), "p99-ns/step")
		})
	}
}
