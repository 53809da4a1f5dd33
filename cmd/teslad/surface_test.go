package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"
)

// surfacePins lists, per standalone mode, the operator surface dashboards
// and scripts depend on: every /metrics series as name{label keys}, and the
// JSON key paths of each endpoint ("a.b" for nested objects, "a[].b" for
// array elements). A mode may gain series or keys; it must never lose or
// rename one.
var surfacePins = []struct {
	name    string
	args    []string
	metrics []string
	json    map[string][]string
}{
	{
		name: "single-room",
		args: []string{"-policy", "fixed", "-minutes", "0", "-speedup", "6000", "-inputs", "modbus,http=127.0.0.1:0"},
		metrics: []string{
			"tesla_setpoint_celsius", "tesla_inlet_celsius", "tesla_max_cold_aisle_celsius",
			"tesla_acu_power_kw", "tesla_cooling_energy_kwh", "tesla_violation_minutes",
			"tesla_interruption_minutes", "tesla_safety_level", "tesla_safety_escalations_total",
			"tesla_policy_overrides_total", "tesla_quarantined_sensors",
			"tesla_policy_history_fallbacks_total", "tesla_policy_optimizer_fallbacks_total",
			"tesla_wal_records_total", "tesla_wal_bytes_total", "tesla_wal_syncs_total",
			"tesla_wal_segments", "tesla_snapshot_writes_total", "tesla_snapshot_last_step",
			"tesla_snapshot_last_bytes", "tesla_recovered_steps", "tesla_replay_mismatches",
			"tesla_gateway_devices", "tesla_gateway_connected", "tesla_gateway_in_flight",
			"tesla_gateway_requests_total", "tesla_gateway_completed_total",
			"tesla_gateway_failed_total", "tesla_gateway_dropped_total",
			"tesla_gateway_reconnects_total", "tesla_gateway_dial_failures_total",
			"tesla_gateway_wire_reads_total", "tesla_gateway_merged_reads_total",
			"tesla_gateway_writes_total",
			"tesla_ingest_inputs", "tesla_ingest_attempts_total", "tesla_ingest_ingested_total",
			"tesla_ingest_dropped_total", "tesla_ingest_seq_gaps_total",
			"tesla_ingest_subscriptions", "tesla_ingest_resubscribes_total",
			"tesla_ingest_gathers_total", "tesla_ingest_gather_errors_total",
			"tesla_tsdb_series", "tesla_tsdb_raw_points", "tesla_tsdb_minute_points",
			"tesla_tsdb_hour_points", "tesla_tsdb_inserted_total", "tesla_tsdb_raw_compacted_total",
			"tesla_tsdb_minute_compacted_total", "tesla_tsdb_hour_dropped_total",
			"tesla_tsdb_late_dropped_total", "tesla_tsdb_rejected_lines_total",
			"tesla_tsdb_compactions_total", "tesla_events_dropped_total",
		},
		json: map[string][]string{
			"/status": {
				"step_minutes", "setpoint_c", "inlet_c", "max_cold_c", "acu_power_kw",
				"avg_server_kw", "energy_kwh", "violation_minutes", "interruption_minutes",
				"safety_level", "safety_max_level", "safety_escalations", "policy_overrides",
				"quarantined_sensors", "policy_decisions", "policy_history_fallbacks",
				"policy_optimizer_fallbacks", "recent_events",
				"durability", "durability.enabled", "durability.recovered",
				"durability.recovered_steps", "durability.replayed_steps",
				"durability.replay_mismatches", "durability.last_checkpoint_step",
				"durability.wal_records", "durability.wal_bytes", "durability.wal_syncs",
				"durability.wal_segments", "durability.snapshots_written",
				"durability.last_snapshot_bytes",
				"gateway", "gateway.devices", "gateway.connected", "gateway.writes",
				"gateway.wire_reads", "gateway.dropped",
				"ingest", "ingest.inputs", "ingest.attempts", "ingest.ingested", "ingest.dropped",
				"ingest.seq_gaps", "ingest.tsdb",
			},
		},
	},
	{
		name: "fleet",
		args: []string{"-rooms", "2", "-policy", "fixed", "-minutes", "0", "-speedup", "6000"},
		metrics: []string{
			"tesla_fleet_rooms", "tesla_fleet_samples_ingested_total",
			"tesla_fleet_samples_dropped_total", "tesla_fleet_seq_gaps_total",
			"tesla_fleet_max_cold_aisle_celsius", "tesla_fleet_cooling_power_kw",
			"tesla_fleet_cooling_energy_kwh", "tesla_fleet_violation_minutes",
			"tesla_fleet_interruption_minutes", "tesla_fleet_safety_level_steps_total{level}",
			"tesla_room_setpoint_celsius{room}", "tesla_room_max_cold_aisle_celsius{room}",
			"tesla_room_safety_level{room}", "tesla_room_step_minutes{room}",
			"tesla_events_dropped_total",
		},
		json: map[string][]string{
			"/fleet": {
				"rollup", "rollup.rooms", "rollup.samples", "rollup.dropped", "rollup.seq_gaps",
				"rollup.max_cold_c", "rollup.cooling_kwh",
				"rooms", "rooms[].room", "rooms[].name", "rooms[].step_minutes",
				"rooms[].setpoint_c", "rooms[].max_cold_c", "rooms[].acu_power_kw",
				"rooms[].energy_kwh", "rooms[].violation_minutes", "rooms[].interruption_minutes",
				"rooms[].safety_level", "rooms[].safety_max_level", "rooms[].safety_escalations",
				"rooms[].policy_overrides", "rooms[].durability", "rooms[].durability.enabled",
				"rooms[].durability.recovered", "rooms[].durability.recovered_steps",
				"room_aggs", "recent_events",
			},
			"/rooms/1": {
				"room", "name", "step_minutes", "setpoint_c", "max_cold_c", "acu_power_kw",
				"energy_kwh", "violation_minutes", "interruption_minutes", "safety_level",
				"safety_max_level", "safety_escalations", "policy_overrides", "durability",
				"durability.enabled", "ingested",
			},
		},
	},
	{
		name: "scheduler",
		args: []string{"-rooms", "2", "-scheduler", "full", "-policy", "fixed", "-minutes", "100000", "-speedup", "6000"},
		metrics: []string{
			"tesla_sched_step_minutes", "tesla_sched_placements_total",
			"tesla_sched_deferrals_total", "tesla_sched_migrations_total{reason}",
			"tesla_sched_waiting_jobs", "tesla_sched_running_jobs", "tesla_sched_completed_jobs",
			"tesla_sched_mean_wait_seconds", "tesla_sched_room_queue_depth{room}",
			"tesla_room_setpoint_celsius{room}", "tesla_room_max_cold_aisle_celsius{room}",
			"tesla_room_acu_duty{room}", "tesla_room_it_power_kw{room}",
			"tesla_room_cooling_energy_kwh{room}",
		},
		json: map[string][]string{
			"/fleet": {
				"scheduler_mode", "step_minutes", "rooms", "rooms[].room", "rooms[].name",
				"rooms[].setpoint_c", "rooms[].max_cold_c", "rooms[].acu_duty",
				"rooms[].acu_power_kw", "rooms[].it_power_kw", "rooms[].energy_kwh",
				"rooms[].violation_minutes", "rooms[].queue_depth",
				"sched", "sched.placements", "sched.deferrals", "sched.waiting",
				"jobs", "jobs.submitted", "jobs.completed", "jobs.mean_wait_s",
			},
			"/status": {"scheduler_mode", "step_minutes", "rooms", "sched", "jobs"},
		},
	},
}

// TestOperatorSurfacePinned runs the real binary in each standalone mode
// and checks that every pinned metric series and JSON key is still served.
func TestOperatorSurfacePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "teslad")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building teslad: %v\n%s", err, out)
	}
	for _, mode := range surfacePins {
		t.Run(mode.name, func(t *testing.T) {
			args := mode.args
			if mode.name != "scheduler" {
				args = append(args, "-datadir", t.TempDir())
			}
			p := startTeslad(t, bin, args...)
			waitReady(t, p)

			got := metricSeries(t, p)
			for _, want := range mode.metrics {
				if !got[want] {
					t.Errorf("/metrics lost series %s", want)
				}
			}
			for path, keys := range mode.json {
				have := jsonKeys(t, p, path)
				for _, want := range keys {
					if !have[want] {
						t.Errorf("%s lost key %s", path, want)
					}
				}
			}
			if t.Failed() {
				t.Logf("served metrics: %v\n%s", sortedKeys(got), p.output())
			}
			p.cmd.Process.Signal(syscall.SIGTERM)
			select {
			case <-p.done:
			case <-time.After(60 * time.Second):
				t.Fatalf("teslad did not exit after SIGTERM\n%s", p.output())
			}
		})
	}
}

// waitReady polls /healthz until every room has published a step.
func waitReady(t *testing.T, p *tesladProc) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + p.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("teslad never became ready\n%s", p.output())
}

var labelKey = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="`)

// metricSeries reads /metrics into a set of "name" / "name{k1,k2}" entries.
func metricSeries(t *testing.T, p *tesladProc) map[string]bool {
	t.Helper()
	resp, err := http.Get("http://" + p.addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series := strings.Fields(line)[0]
		name, labels, ok := strings.Cut(series, "{")
		if !ok {
			out[name] = true
			continue
		}
		var keys []string
		for _, m := range labelKey.FindAllStringSubmatch(labels, -1) {
			keys = append(keys, m[1])
		}
		sort.Strings(keys)
		out[name+"{"+strings.Join(keys, ",")+"}"] = true
	}
	return out
}

// jsonKeys fetches a JSON endpoint and flattens its key paths.
func jsonKeys(t *testing.T, p *tesladProc, path string) map[string]bool {
	t.Helper()
	resp, err := http.Get("http://" + p.addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", path, resp.Status, body)
	}
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	out := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, child := range x {
				key := k
				if prefix != "" {
					key = prefix + "." + k
				}
				out[key] = true
				walk(key, child)
			}
		case []any:
			for _, child := range x {
				walk(prefix+"[]", child)
			}
		}
	}
	walk("", v)
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
