package scheduler

import (
	"testing"

	"tesla/internal/cluster"
	"tesla/internal/workload"
)

// testRooms builds n real (but plant-less) orchestrators over small clusters
// so placement/eviction behavior is exercised without any physics.
func testRooms(n int) ([]*workload.Orchestrator, []string) {
	orchs := make([]*workload.Orchestrator, n)
	names := make([]string, n)
	for i := range orchs {
		orchs[i] = workload.NewOrchestrator(cluster.New(4))
		names[i] = []string{"alpha", "bravo", "charlie", "delta"}[i%4]
	}
	return orchs, names
}

// coolStates returns n rooms with ample headroom and idle compressors.
func coolStates(n int) []RoomState {
	out := make([]RoomState, n)
	for i := range out {
		out[i] = RoomState{HeadroomC: 3, Duty: 0.3}
	}
	return out
}

func mustSched(t *testing.T, mode Mode, n int) (*Scheduler, []*workload.Orchestrator) {
	t.Helper()
	orchs, names := testRooms(n)
	s, err := New(DefaultConfig(mode), orchs, names)
	if err != nil {
		t.Fatal(err)
	}
	return s, orchs
}

func TestParseMode(t *testing.T) {
	for in, want := range map[string]Mode{"": ModeNone, "none": ModeNone, "defer": ModeDefer, "full": ModeFull} {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", in, got, err)
		}
		if in != "" && got.String() != in {
			t.Fatalf("Mode(%q).String() = %q", in, got)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatalf("bogus mode accepted")
	}
}

func TestConfigAndJobValidation(t *testing.T) {
	cfg := DefaultConfig(ModeFull)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.DutyMax = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatalf("duty ceiling 1.5 accepted")
	}
	bad = cfg
	bad.CooldownSteps = -1
	if err := bad.Validate(); err == nil {
		t.Fatalf("negative cooldown accepted")
	}
	bad = cfg
	bad.AdmitHeadroomC = -1
	if err := bad.Validate(); err == nil {
		t.Fatalf("negative headroom accepted")
	}

	good := Job{Name: "j", Level: 0.3, DurationS: 60, Parallelism: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	badJob := good
	badJob.SubmitS = -1
	if err := badJob.Validate(); err == nil {
		t.Fatalf("negative submit time accepted")
	}
	badJob = good
	badJob.MaxDeferS = -1
	if err := badJob.Validate(); err == nil {
		t.Fatalf("negative defer bound accepted")
	}
	badJob = good
	badJob.Level = 2
	if err := badJob.Validate(); err == nil {
		t.Fatalf("level 2 accepted")
	}

	orchs, names := testRooms(2)
	if _, err := New(DefaultConfig(ModeNone), nil, nil); err == nil {
		t.Fatalf("no rooms accepted")
	}
	if _, err := New(DefaultConfig(ModeNone), orchs, names[:1]); err == nil {
		t.Fatalf("name/room mismatch accepted")
	}
}

func TestCountersClone(t *testing.T) {
	a := Counters{
		Placements: 3, Deferrals: 2, Waiting: 1, RunningJobs: 2, CompletedJobs: 4,
		Migrations: map[string]uint64{ReasonThermal: 1},
		RoomQueue:  map[string]int{"alpha": 2},
	}
	c := a.Clone()
	c.Migrations[ReasonThermal] = 3
	c.Migrations[ReasonCapacity] = 1
	c.RoomQueue["alpha"] = 5
	if a.Migrations[ReasonThermal] != 1 || len(a.Migrations) != 1 || a.RoomQueue["alpha"] != 2 {
		t.Fatalf("mutating the clone mutated its source: %+v", a)
	}
	if c.Placements != 3 || c.Deferrals != 2 || c.Waiting != 1 || c.RunningJobs != 2 || c.CompletedJobs != 4 {
		t.Fatalf("bad clone: %+v", c)
	}
	if c.MigrationsTotal() != 4 {
		t.Fatalf("migrations total %d", c.MigrationsTotal())
	}
}

func TestModeNonePlacesRoundRobin(t *testing.T) {
	s, orchs := mustSched(t, ModeNone, 3)
	for i := 0; i < 6; i++ {
		job := Job{Name: "j", Level: 0.3, DurationS: 600, Parallelism: 2, Deferrable: true}
		job.Name = string(rune('a' + i))
		if err := s.Submit(job, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Even with every room scorching, ModeNone places everything immediately.
	states := make([]RoomState, 3)
	for i := range states {
		states[i] = RoomState{HeadroomC: -2, Duty: 1}
	}
	if err := s.Step(0, 0, states); err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.Placements != 6 || c.Deferrals != 0 || c.Waiting != 0 {
		t.Fatalf("counters %+v", c)
	}
	for i, o := range orchs {
		if o.Running() != 4 { // 2 jobs × 2 pods round-robin
			t.Fatalf("room %d has %d pods, want 4", i, o.Running())
		}
	}
}

func TestModeDeferHoldsUntilHeadroom(t *testing.T) {
	s, orchs := mustSched(t, ModeDefer, 2)
	// seq 0 → room 0. Deferrable, so a hot room 0 defers it.
	if err := s.Submit(Job{Name: "d", Level: 0.3, DurationS: 600, Parallelism: 2, Deferrable: true}, 0); err != nil {
		t.Fatal(err)
	}
	// seq 1 → room 1. NOT deferrable: places even though room 1 is hot too.
	if err := s.Submit(Job{Name: "n", Level: 0.3, DurationS: 600, Parallelism: 2}, 0); err != nil {
		t.Fatal(err)
	}
	hot := []RoomState{{HeadroomC: 0.2, Duty: 0.9}, {HeadroomC: 0.2, Duty: 0.9}}
	if err := s.Step(0, 0, hot); err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.Placements != 1 || c.Deferrals != 1 || c.Waiting != 1 {
		t.Fatalf("after hot step: %+v", c)
	}
	if orchs[0].Running() != 0 || orchs[1].Running() != 2 {
		t.Fatalf("pods: %d / %d", orchs[0].Running(), orchs[1].Running())
	}
	// Room 0 cools: the deferred job lands there (placement stays naive).
	cool := []RoomState{{HeadroomC: 2.5, Duty: 0.5}, {HeadroomC: 0.2, Duty: 0.9}}
	if err := s.Step(1, 60, cool); err != nil {
		t.Fatal(err)
	}
	if c := s.Counters(); c.Placements != 2 || c.Waiting != 0 {
		t.Fatalf("after cool step: %+v", c)
	}
	if orchs[0].Running() != 2 {
		t.Fatalf("deferred job not placed on its round-robin room")
	}
}

func TestDeferralStarvationBound(t *testing.T) {
	s, orchs := mustSched(t, ModeFull, 2)
	if err := s.Submit(Job{Name: "starved", Level: 0.3, DurationS: 600, Parallelism: 2, Deferrable: true, MaxDeferS: 120}, 0); err != nil {
		t.Fatal(err)
	}
	hot := func() []RoomState {
		return []RoomState{{HeadroomC: -0.5, Duty: 1}, {HeadroomC: -0.2, Duty: 1}}
	}
	// Two barriers of sustained stress: deferred both times.
	for step, now := 0, 0.0; step < 2; step, now = step+1, now+60 {
		if err := s.Step(step, now, hot()); err != nil {
			t.Fatal(err)
		}
		if got := s.Counters().Placements; got != 0 {
			t.Fatalf("step %d: placed under stress before the deadline", step)
		}
	}
	if got := s.Counters().Deferrals; got != 2 {
		t.Fatalf("deferral counter %d, want 2", got)
	}
	// now-submit == MaxDeferS: the bound fires and the job runs
	// unconditionally on the least-bad room (room 1: headroom −0.2 > −0.5).
	if err := s.Step(2, 120, hot()); err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.Placements != 1 || c.Waiting != 0 {
		t.Fatalf("starvation bound did not fire: %+v", c)
	}
	if orchs[1].Running() != 2 || orchs[0].Running() != 0 {
		t.Fatalf("overdue job on room 0 (headroom −0.5) instead of the least-bad room 1")
	}
	st := s.Stats(120)
	if st.MaxWaitS != 120 || st.Submitted != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestModeFullPlacesMostHeadroomAndDebits(t *testing.T) {
	s, orchs := mustSched(t, ModeFull, 3)
	for _, name := range []string{"a", "b"} {
		if err := s.Submit(Job{Name: name, Level: 0.5, DurationS: 600, Parallelism: 4}, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Room 1 has the most headroom; after job a's debit
	// (0.2 × 0.5 × 4 = 0.4 °C) it still beats room 0's 1.6 — so both jobs
	// land on room 1. A third job would then see 1.8−0.8 = 1.0 < room 0.
	states := []RoomState{{HeadroomC: 1.6, Duty: 0.4}, {HeadroomC: 2.4, Duty: 0.4}, {HeadroomC: 1.2, Duty: 0.4}}
	if err := s.Step(0, 0, states); err != nil {
		t.Fatal(err)
	}
	if orchs[1].Running() != 8 {
		t.Fatalf("room 1 has %d pods, want 8", orchs[1].Running())
	}
	if err := s.Submit(Job{Name: "c", Level: 0.5, DurationS: 600, Parallelism: 4}, 60); err != nil {
		t.Fatal(err)
	}
	// Fresh states at the next barrier: room 1 now genuinely hotter.
	states = []RoomState{{HeadroomC: 1.6, Duty: 0.4}, {HeadroomC: 1.0, Duty: 0.4}, {HeadroomC: 1.2, Duty: 0.4}}
	if err := s.Step(1, 60, states); err != nil {
		t.Fatal(err)
	}
	if orchs[0].Running() != 4 {
		t.Fatalf("job c on room %v, want room 0", orchs[0].Running())
	}
	// Saturated-duty rooms are ineligible even with headroom.
	if err := s.Submit(Job{Name: "d", Level: 0.5, DurationS: 600, Parallelism: 4}, 120); err != nil {
		t.Fatal(err)
	}
	states = []RoomState{{HeadroomC: 3, Duty: 0.99}, {HeadroomC: 1.4, Duty: 0.4}, {HeadroomC: 1.2, Duty: 0.4}}
	if err := s.Step(2, 120, states); err != nil {
		t.Fatal(err)
	}
	if orchs[1].Running() != 8+4 {
		t.Fatalf("job d dodged the saturated room poorly: room1=%d", orchs[1].Running())
	}
}

func TestMigrationShedsStressedRoom(t *testing.T) {
	cfg := DefaultConfig(ModeFull)
	cfg.CooldownSteps = 3
	orchs, names := testRooms(2)
	s, err := New(cfg, orchs, names)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(Job{Name: "batch", Level: 0.4, DurationS: 6000, Parallelism: 3, Deferrable: true}, 0); err != nil {
		t.Fatal(err)
	}
	// Placement at step 0: room 0 is the coolest.
	if err := s.Step(0, 0, []RoomState{{HeadroomC: 3, Duty: 0.5}, {HeadroomC: 2, Duty: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if orchs[0].Running() != 3 {
		t.Fatalf("placement went to room %d", 1)
	}

	stress := []RoomState{{HeadroomC: 0.1, Duty: 0.9}, {HeadroomC: 2.0, Duty: 0.5}}
	// Step 1: inside the cooldown window — no migration yet.
	if err := s.Step(1, 60, cloneStates(stress)); err != nil {
		t.Fatal(err)
	}
	if s.Counters().MigrationsTotal() != 0 {
		t.Fatalf("migrated inside the cooldown window")
	}
	// Step 3 (≥ cooldown since the placement at step 0): migrate.
	if err := s.Step(3, 180, cloneStates(stress)); err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.Migrations[ReasonThermal] != 1 {
		t.Fatalf("migrations %+v", c.Migrations)
	}
	if orchs[0].Running() != 0 || orchs[1].Running() != 3 {
		t.Fatalf("pods after migration: %d / %d", orchs[0].Running(), orchs[1].Running())
	}
	if st := s.Stats(180); st.MigratedJobs != 1 {
		t.Fatalf("stats %+v", st)
	}

	// Room 1 stressed too, but room 0 lacks MigrateHeadroomC: the job stays
	// put rather than bouncing onto a lukewarm room.
	lukewarm := []RoomState{{HeadroomC: 1.0, Duty: 0.5}, {HeadroomC: 0.1, Duty: 0.9}}
	if err := s.Step(7, 420, cloneStates(lukewarm)); err != nil {
		t.Fatal(err)
	}
	if got := s.Counters().MigrationsTotal(); got != 1 {
		t.Fatalf("ping-pong migration happened: %d", got)
	}

	// Compressor saturation (duty above the ceiling) migrates with the
	// capacity reason even when the cold aisle still has headroom.
	saturated := []RoomState{{HeadroomC: 2.0, Duty: 0.9}, {HeadroomC: 2.0, Duty: 0.97}}
	if err := s.Step(8, 480, cloneStates(saturated)); err != nil {
		t.Fatal(err)
	}
	c = s.Counters()
	if c.Migrations[ReasonCapacity] != 1 {
		t.Fatalf("capacity migration missing: %+v", c.Migrations)
	}
	if orchs[0].Running() != 3 {
		t.Fatalf("job did not return to room 0")
	}
}

func cloneStates(in []RoomState) []RoomState {
	return append([]RoomState(nil), in...)
}

func TestCompletedJobsAreReaped(t *testing.T) {
	s, orchs := mustSched(t, ModeFull, 2)
	if err := s.Submit(Job{Name: "quick", Level: 0.3, DurationS: 120, Parallelism: 2}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(0, 0, coolStates(2)); err != nil {
		t.Fatal(err)
	}
	if s.Counters().RunningJobs != 1 {
		t.Fatalf("not running after placement")
	}
	// Past the job's end: the orchestrator reaps at Tick; the scheduler's
	// completion pass mirrors it.
	orchs[0].Tick(150)
	orchs[1].Tick(150)
	if err := s.Step(3, 180, coolStates(2)); err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.CompletedJobs != 1 || c.RunningJobs != 0 {
		t.Fatalf("completion not tracked: %+v", c)
	}
	st := s.Stats(180)
	if st.Completed != 1 || st.MeanLatencyS != 120 {
		t.Fatalf("stats %+v", st)
	}
}
