package main

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"tesla/internal/telemetry"
	"tesla/internal/testbed"
)

// testFleetOperator fabricates a 3-room fleet with two ingested rooms and a
// telemetry queue that has already evicted samples.
func testFleetOperator(t *testing.T) *operator {
	t.Helper()
	queues := []*telemetry.Queue{telemetry.NewQueue(4), telemetry.NewQueue(16), telemetry.NewQueue(16)}
	ing := telemetry.NewIngestor(queues, coldLimitC, 60, 0)
	events := telemetry.NewEventLog(2)
	fd := newOperator([]string{"room-0", "room-1", "room-2"})
	fd.ing, fd.events = ing, events

	// Room 0 laps its tiny queue; room 1 stays lossless.
	for i := uint64(0); i < 10; i++ {
		queues[0].Push(telemetry.RoomSample{Room: 0, Seq: i, S: testbed.Sample{TimeS: float64(i) * 60, MaxColdAisle: 21, ACUPowerKW: 2}})
	}
	queues[1].Push(telemetry.RoomSample{Room: 1, Seq: 0, Level: 2, S: testbed.Sample{MaxColdAisle: 22.6, ACUPowerKW: 3}})
	ing.DrainOnce()

	for i := 0; i < 5; i++ {
		events.Append(telemetry.Entry{Kind: "escalation", Detail: "room-1: stale telemetry"})
	}
	return fd
}

func TestFleetEndpointServesRollupAndRooms(t *testing.T) {
	fd := testFleetOperator(t)
	rec := httptest.NewRecorder()
	fd.handleStatus(rec, httptest.NewRequest("GET", "/fleet", nil))
	var out struct {
		Rollup telemetry.Rollup    `json:"rollup"`
		Rooms  []roomStatus        `json:"rooms"`
		Aggs   []telemetry.RoomAgg `json:"room_aggs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad /fleet body: %v", err)
	}
	if out.Rollup.Samples != 5 || out.Rollup.Dropped != 6 {
		t.Fatalf("rollup = %+v, want 5 ingested / 6 dropped", out.Rollup)
	}
	if len(out.Rooms) != 3 || out.Rooms[1].Name != "room-1" {
		t.Fatalf("rooms = %+v", out.Rooms)
	}
	if len(out.Aggs) != 3 || out.Aggs[0].Samples != 4 {
		t.Fatalf("room aggs = %+v", out.Aggs)
	}
}

func TestRoomEndpointRoutesAndRejects(t *testing.T) {
	fd := testFleetOperator(t)
	rec := httptest.NewRecorder()
	fd.handleRoom(rec, httptest.NewRequest("GET", "/rooms/1", nil))
	if rec.Code != 200 {
		t.Fatalf("/rooms/1 -> %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Name     string            `json:"name"`
		Ingested telemetry.RoomAgg `json:"ingested"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad /rooms/1 body: %v", err)
	}
	if out.Name != "room-1" || out.Ingested.LastLevel != 2 {
		t.Fatalf("room 1 = %+v", out)
	}

	rec = httptest.NewRecorder()
	fd.handleRoom(rec, httptest.NewRequest("GET", "/rooms/7", nil))
	if rec.Code != 404 {
		t.Fatalf("/rooms/7 -> %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	fd.handleRoom(rec, httptest.NewRequest("GET", "/rooms/xyz", nil))
	if rec.Code != 400 {
		t.Fatalf("/rooms/xyz -> %d, want 400", rec.Code)
	}
}

func TestFleetHealthzWaitsForEveryRoom(t *testing.T) {
	fd := testFleetOperator(t)
	probe := func() int {
		rec := httptest.NewRecorder()
		fd.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec.Code
	}
	if probe() != 503 {
		t.Fatal("fleet with zero published rooms must be unready")
	}
	for i := 0; i < 2; i++ {
		fd.update(i, func(rs *roomStatus) { rs.StepMinutes = 1 })
	}
	if probe() != 503 {
		t.Fatal("fleet must stay unready until the last room publishes")
	}
	fd.update(2, func(rs *roomStatus) { rs.StepMinutes = 1 })
	if probe() != 200 {
		t.Fatal("fully published fleet must be ready")
	}
}

func TestSingleRoomHealthz(t *testing.T) {
	d := newOperator([]string{"room-0"})
	rec := httptest.NewRecorder()
	d.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("pre-first-step healthz -> %d, want 503", rec.Code)
	}
	d.update(0, func(st *roomStatus) { st.StepMinutes = 1 })
	rec = httptest.NewRecorder()
	d.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("post-first-step healthz -> %d, want 200", rec.Code)
	}
}

func TestFleetMetricsExposeLossCounters(t *testing.T) {
	fd := testFleetOperator(t)
	rec := httptest.NewRecorder()
	fd.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"tesla_fleet_rooms 3",
		"tesla_fleet_samples_ingested_total 5",
		"tesla_fleet_samples_dropped_total 6",
		"tesla_fleet_seq_gaps_total 6",
		"tesla_events_dropped_total 3",
		`tesla_safety_events_total{kind="escalation"} 5`,
		`tesla_room_step_minutes{room="room-2"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}
