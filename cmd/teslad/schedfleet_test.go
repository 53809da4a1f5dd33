package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"tesla/internal/scheduler"
)

func TestPolicyFactoryColdPoliciesBootWithoutTraining(t *testing.T) {
	for _, name := range []string{"fixed", "modelfree"} {
		factory, err := policyFactory(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := factory(0, 42); err != nil {
			t.Fatalf("%s: building room policy: %v", name, err)
		}
	}
	if _, err := policyFactory("nope"); err == nil {
		t.Fatal("unknown policy must be rejected")
	}
}

// testSchedOperator fabricates a published scheduled-fleet snapshot.
func testSchedOperator() *operator {
	o := newOperator([]string{"room-0", "room-1"})
	o.sched = &schedStatus{
		Mode: "full",
		Counters: scheduler.Counters{
			Placements: 4, Deferrals: 2, Waiting: 1, RunningJobs: 2, CompletedJobs: 1,
			Migrations: map[string]uint64{scheduler.ReasonThermal: 1},
			RoomQueue:  map[string]int{"room-0": 2},
		},
		Jobs: scheduler.JobStats{Submitted: 5, Completed: 1, MeanWaitS: 120},
	}
	o.rooms[0].StepMinutes, o.rooms[1].StepMinutes = 7, 7
	o.rooms[0].MaxColdC = 21.4
	o.rooms[1].MaxColdC = 22.3
	return o
}

func TestSchedFleetEndpointServesCountersAndRooms(t *testing.T) {
	sd := testSchedOperator()
	rec := httptest.NewRecorder()
	sd.handleStatus(rec, httptest.NewRequest("GET", "/fleet", nil))
	var out struct {
		Mode  string             `json:"scheduler_mode"`
		Rooms []roomStatus       `json:"rooms"`
		Sched scheduler.Counters `json:"sched"`
		Jobs  scheduler.JobStats `json:"jobs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad /fleet body: %v", err)
	}
	if out.Mode != "full" || len(out.Rooms) != 2 {
		t.Fatalf("fleet view = %+v", out)
	}
	if out.Sched.Placements != 4 || out.Sched.Migrations[scheduler.ReasonThermal] != 1 {
		t.Fatalf("sched counters = %+v", out.Sched)
	}
	if out.Jobs.Submitted != 5 || out.Rooms[0].QueueDepth != 2 {
		t.Fatalf("jobs/queue = %+v / %+v", out.Jobs, out.Rooms[0])
	}
}

func TestSchedFleetMetricsExposeSchedulerCounters(t *testing.T) {
	sd := testSchedOperator()
	rec := httptest.NewRecorder()
	sd.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"tesla_sched_placements_total 4",
		"tesla_sched_deferrals_total 2",
		`tesla_sched_migrations_total{reason="thermal"} 1`,
		`tesla_sched_migrations_total{reason="capacity"} 0`,
		"tesla_sched_waiting_jobs 1",
		"tesla_sched_running_jobs 2",
		`tesla_sched_room_queue_depth{room="room-0"} 2`,
		`tesla_sched_room_queue_depth{room="room-1"} 0`,
		`tesla_room_max_cold_aisle_celsius{room="room-1"} 22.3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestSchedFleetHealthzWaitsForFirstBarrier(t *testing.T) {
	sd := newOperator([]string{"room-0"})
	rec := httptest.NewRecorder()
	sd.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("pre-first-barrier healthz -> %d, want 503", rec.Code)
	}
	sd.update(0, func(rs *roomStatus) { rs.StepMinutes = 1 })
	rec = httptest.NewRecorder()
	sd.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("post-first-barrier healthz -> %d, want 200", rec.Code)
	}
}

// TestRunSchedFleetCompletes runs the whole -scheduler mode end to end on a
// tiny horizon with the training-free policy: warm-up, lockstep stepping with
// scheduler barriers, operator endpoints bound, clean summary.
func TestRunSchedFleetCompletes(t *testing.T) {
	if err := run(context.Background(), schedOptions(3, "full", "")); err != nil {
		t.Fatalf("run -scheduler: %v", err)
	}
}

func schedOptions(minutes int, mode, datadir string) options {
	return options{listen: "127.0.0.1:0", rooms: 2, minutes: minutes, seed: 77, policy: "fixed", sched: mode, dur: durOptions{dir: datadir}}
}

func TestRunSchedFleetRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), schedOptions(0, "full", "")); err == nil {
		t.Fatal("minutes 0 must be rejected")
	}
	if err := run(context.Background(), schedOptions(3, "bogus", "")); err == nil {
		t.Fatal("bad scheduler mode must be rejected")
	}
	if err := run(context.Background(), schedOptions(3, "full", t.TempDir())); err == nil {
		t.Fatal("-datadir must be rejected in scheduler mode")
	}
}
