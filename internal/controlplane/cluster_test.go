package controlplane

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tesla/internal/control"
	"tesla/internal/dataset"
	"tesla/internal/fleet"
)

// emaPolicy mirrors the fleet package's durable test policy: a stateful EMA
// controller where every decision depends on the entire history, so any
// recovery or hand-off error compounds into a different trajectory hash.
type emaPolicy struct {
	bias float64
	ema  float64
	n    int
}

func newEMAPolicy(room int, seed uint64) (control.Policy, error) {
	return &emaPolicy{bias: 22.8 + float64(seed%64)/128}, nil
}

func (p *emaPolicy) Name() string { return "cp-ema" }

func (p *emaPolicy) Decide(tr *dataset.Trace, t int) float64 {
	v := tr.MaxCold[t]
	if p.n == 0 {
		p.ema = v
	} else {
		p.ema = 0.2*v + 0.8*p.ema
	}
	p.n++
	return p.bias + 0.05*(21.5-p.ema)
}

type emaState struct {
	EMA float64
	N   int
}

func (p *emaPolicy) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(emaState{p.ema, p.n}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (p *emaPolicy) Restore(blob []byte) error {
	var st emaState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		return err
	}
	p.ema, p.n = st.EMA, st.N
	return nil
}

// testFleetCfg builds an n-room fleet with a CI-friendly horizon: 30 warm-up
// and 60 evaluated steps per room, checkpointing every 8.
func testFleetCfg(n int, seed uint64) fleet.Config {
	cfg := fleet.DefaultConfig(n, seed, newEMAPolicy)
	cfg.WarmupS = 1800
	cfg.EvalS = 3600
	cfg.SnapshotEvery = 8
	return cfg
}

// referenceHashes runs the fleet uninterrupted in one process and returns
// per-room trajectory hashes — the ground truth every chaos scenario must
// reproduce bit for bit.
func referenceHashes(t *testing.T, cfg fleet.Config) map[int]uint64 {
	t.Helper()
	ref, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int]uint64, len(ref.Rooms))
	for _, r := range ref.Rooms {
		out[r.Room] = r.TrajectoryHash
	}
	return out
}

func fastRPC() ClientOptions {
	return ClientOptions{Retries: 2, BackoffMin: 2 * time.Millisecond, BackoffMax: 20 * time.Millisecond, Timeout: 5 * time.Second}
}

// cluster wires a coordinator and shards over real loopback HTTP.
type cluster struct {
	t        *testing.T
	coord    *Coordinator
	coordSrv *httptest.Server
	shards   map[string]*Shard
	srvs     map[string]*httptest.Server
}

// startCluster launches a coordinator plus one shard per entry of roots
// (shard ID → data dir; point several at one directory for the shared-root
// failover model). Chaos-friendly timings: 10ms heartbeats, dead after
// 90ms, reconcile every 10ms.
func startCluster(t *testing.T, fcfg fleet.Config, roots map[string]string, delay time.Duration) *cluster {
	t.Helper()
	return startClusterFB(t, fcfg, roots, delay, false, chaosLease)
}

// chaosLease buries a shard that has been quiet for 90 ms (suspect after
// 40 ms) — fast failover for the tests that kill or stall shards.
// calmLease is for tests that move rooms on purpose: under -race on two
// vCPUs a healthy shard's heartbeats can stall past 90 ms, and the
// unplanned failover that follows would muddle what a migration test
// measures.
const (
	chaosLease = 90 * time.Millisecond
	calmLease  = 10 * time.Second
)

// startClusterFB is startCluster with the per-shard Modbus field bus
// switched on or off and shards declared dead after lease of silence.
func startClusterFB(t *testing.T, fcfg fleet.Config, roots map[string]string, delay time.Duration, fieldBus bool, lease time.Duration) *cluster {
	t.Helper()
	coord, err := NewCoordinator(CoordinatorConfig{
		Fleet:          fcfg,
		SuspectAfter:   lease * 4 / 9,
		DeadAfter:      lease,
		ReconcileEvery: 10 * time.Millisecond,
		RPC:            fastRPC(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := &cluster{t: t, coord: coord, shards: map[string]*Shard{}, srvs: map[string]*httptest.Server{}}
	cl.coordSrv = httptest.NewServer(coord.Handler())
	coord.Start()
	for id, dir := range roots {
		sh, err := NewShard(ShardConfig{
			ID:             id,
			Fleet:          fcfg,
			DataDir:        dir,
			StepDelay:      delay,
			Coordinator:    cl.coordSrv.URL,
			HeartbeatEvery: 10 * time.Millisecond,
			RPC:            fastRPC(),
			FieldBus:       fieldBus,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(sh.Handler())
		sh.SetAdvertise(srv.URL)
		sh.Start()
		cl.shards[id] = sh
		cl.srvs[id] = srv
	}
	t.Cleanup(func() {
		coord.Stop()
		for _, sh := range cl.shards {
			sh.Stop()
		}
		cl.coordSrv.Close()
		for _, srv := range cl.srvs {
			srv.Close()
		}
	})
	return cl
}

// waitFor polls the coordinator's fleet view until cond holds.
func (cl *cluster) waitFor(timeout time.Duration, what string, cond func(FleetView) bool) FleetView {
	cl.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := cl.coord.Fleet()
		if cond(v) {
			return v
		}
		if time.Now().After(deadline) {
			dump, _ := json.Marshal(v)
			cl.t.Fatalf("timed out waiting for %s; fleet view: %s", what, dump)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (cl *cluster) waitDone(timeout time.Duration) FleetView {
	return cl.waitFor(timeout, "all rooms done", func(v FleetView) bool { return v.Done == v.Rooms })
}

// waitHealth waits until the coordinator reports shard id at health h.
func (cl *cluster) waitHealth(id string, h ShardHealth, timeout time.Duration) {
	cl.t.Helper()
	cl.waitFor(timeout, fmt.Sprintf("%s %s", id, h), func(v FleetView) bool {
		for _, sh := range v.Shards {
			if sh.ID == id && sh.Health == h {
				return true
			}
		}
		return false
	})
}

// zombie stalls shard id's heartbeats until the coordinator declares it
// dead, then resumes them: its next beat is fenced while its rooms are
// still stepping.
func (cl *cluster) zombie(id string) {
	cl.t.Helper()
	cl.shards[id].PauseHeartbeats()
	cl.waitHealth(id, ShardDead, 30*time.Second)
	cl.shards[id].ResumeHeartbeats()
}

// midFlight waits until a hosted, unfinished room is at a step in [lo, hi]
// and returns its placement.
func (cl *cluster) midFlight(lo, hi int) RoomPlacement {
	cl.t.Helper()
	var got RoomPlacement
	cl.waitFor(30*time.Second, "a room mid-flight", func(v FleetView) bool {
		for _, p := range v.Placements {
			if !p.Done && p.Shard != "" && p.Step >= lo && p.Step <= hi {
				got = p
				return true
			}
		}
		return false
	})
	return got
}

// assertHashes compares every finished room's trajectory hash against the
// uninterrupted reference.
func assertHashes(t *testing.T, v FleetView, want map[int]uint64) {
	t.Helper()
	for _, p := range v.Placements {
		if !p.Done || p.Result == nil {
			t.Errorf("room %d not done in final view", p.Room)
			continue
		}
		if p.Result.TrajectoryHash != want[p.Room] {
			t.Errorf("room %d: hash %#x, uninterrupted reference %#x — continuation is not bit-identical",
				p.Room, p.Result.TrajectoryHash, want[p.Room])
		}
	}
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestClusterPlacementAndRollup: the happy path. Rooms spread over two
// shards, finish with reference-identical hashes, and the coordinator's
// merged rollup accounts for every sample exactly once.
func TestClusterPlacementAndRollup(t *testing.T) {
	fcfg := testFleetCfg(4, 11)
	want := referenceHashes(t, fcfg)
	cl := startCluster(t, fcfg, map[string]string{"shard-a": t.TempDir(), "shard-b": t.TempDir()}, 0)

	// While rooms are unplaced the coordinator must refuse to look healthy.
	if code, _ := httpGet(t, cl.coordSrv.URL+"/healthz"); code != http.StatusServiceUnavailable {
		// Placement can complete very fast; only fail if rooms are still
		// unplaced AND healthz claimed OK.
		if v := cl.coord.Fleet(); v.Unplaced > 0 {
			t.Fatalf("healthz %d with %d rooms unplaced", code, v.Unplaced)
		}
	}

	v := cl.waitDone(60 * time.Second)
	assertHashes(t, v, want)

	// Every room's 60 evaluated steps were ingested by exactly one shard;
	// no recoveries ran, so no seq gaps either.
	if v.Rollup.Samples != 4*60 || v.Rollup.Gaps != 0 || v.Rollup.Dropped != 0 {
		t.Errorf("rollup samples/gaps/dropped = %d/%d/%d, want 240/0/0", v.Rollup.Samples, v.Rollup.Gaps, v.Rollup.Dropped)
	}
	if v.Rollup.Rooms != 4 {
		t.Errorf("rollup rooms %d, want 4", v.Rollup.Rooms)
	}

	if code, body := httpGet(t, cl.coordSrv.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz after completion: %d %s", code, body)
	}
	if code, body := httpGet(t, cl.coordSrv.URL+"/shards"); code != http.StatusOK || !strings.Contains(body, "shard-a") {
		t.Errorf("/shards: %d %s", code, body)
	}
}

// TestFailoverBitIdentical is the headline chaos test: kill a shard mid-run
// (stores abandoned exactly as kill -9 leaves them), let the coordinator
// stage it through suspect to dead and re-place its rooms on the survivor,
// and prove the rooms recovered from their durable stores and finished with
// trajectory hashes bit-identical to an uninterrupted single-process run.
func TestFailoverBitIdentical(t *testing.T) {
	fcfg := testFleetCfg(4, 23)
	want := referenceHashes(t, fcfg)
	shared := t.TempDir() // shared storage: survivors open the dead shard's stores
	cl := startCluster(t, fcfg, map[string]string{"shard-a": shared, "shard-b": shared}, 2*time.Millisecond)

	// Kill a shard while it hosts at least one room mid-horizon.
	victim := cl.midFlight(5, 40).Shard
	cl.shards[victim].Kill()

	v := cl.waitDone(60 * time.Second)
	assertHashes(t, v, want)

	ct := cl.coord.Counters()
	if ct.Failovers < 1 || ct.RoomFailovers < 1 {
		t.Fatalf("no failover recorded: %+v", ct)
	}
	// The hash match must come from durable recovery, not a lucky from-
	// scratch rerun: at least one re-placed room replayed store records.
	recovered := 0
	for _, p := range v.Placements {
		if p.Result != nil && p.Result.Recovery.Recovered && p.Result.Recovery.StepRecords > 0 {
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatal("no room recovered durable state — failover re-ran from scratch")
	}

	// Replayed steps are not re-pushed to telemetry, so they surface as seq
	// gaps; samples + gaps still account for every evaluated step exactly.
	if got := v.Rollup.Samples + v.Rollup.Gaps; got != 4*60 {
		t.Errorf("samples(%d) + gaps(%d) = %d, want 240 — seq-gap accounting broken", v.Rollup.Samples, v.Rollup.Gaps, got)
	}
	if v.Rollup.Gaps == 0 {
		t.Error("failover produced no seq gaps — recovery did not replay")
	}

	code, metrics := httpGet(t, cl.coordSrv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{"tesla_failovers_total", "tesla_shard_heartbeat_age_seconds", "tesla_migrations_total{result=\"ok\"}"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if strings.Contains(metrics, "tesla_failovers_total 0\n") {
		t.Error("/metrics reports zero failovers after a kill")
	}
}

// TestFencedSurvivorLedgerExact: the survivor of a failover stalls its
// heartbeats until the coordinator declares it dead too. Its next beat is
// fenced, so it relinquishes every room it hosts, re-registers and is handed
// the same rooms again. Each successor host counts the steps below its start
// as sequence gaps, so the fenced host's samples must leave the ledger:
// samples + gaps still equals rooms × steps exactly.
func TestFencedSurvivorLedgerExact(t *testing.T) {
	fcfg := testFleetCfg(4, 23)
	fcfg.EvalS = 18000 // 300 steps: keep rooms mid-flight through the fence window
	want := referenceHashes(t, fcfg)
	shared := t.TempDir()
	cl := startCluster(t, fcfg, map[string]string{"shard-a": shared, "shard-b": shared}, 2*time.Millisecond)

	victim := cl.midFlight(5, math.MaxInt).Shard
	survivor := "shard-a"
	if victim == survivor {
		survivor = "shard-b"
	}
	cl.shards[victim].Kill()
	cl.waitFor(30*time.Second, "every room on the survivor", func(v FleetView) bool {
		for _, p := range v.Placements {
			if !p.Done && p.Shard != survivor {
				return false
			}
		}
		return true
	})
	cl.zombie(survivor)

	v := cl.waitDone(120 * time.Second)
	assertHashes(t, v, want)
	if got := cl.shards[survivor].FencedRooms(); got < 1 {
		t.Fatalf("survivor relinquished %d rooms after fencing, want >= 1", got)
	}
	if got := v.Rollup.Samples + v.Rollup.Gaps; got != 4*300 {
		t.Errorf("samples(%d) + gaps(%d) = %d, want 1200 — the fenced host's samples were counted again as gaps",
			v.Rollup.Samples, v.Rollup.Gaps, got)
	}
}

// TestLiveMigrationBitIdentical drains a mid-flight room on its source
// shard, ships its snapshot + WAL to a shard with a completely separate
// data root, resumes it there, and proves the finished trajectory matches
// the uninterrupted reference bit for bit.
func TestLiveMigrationBitIdentical(t *testing.T) {
	fcfg := testFleetCfg(3, 31)
	want := referenceHashes(t, fcfg)
	cl := startClusterFB(t, fcfg, map[string]string{"shard-a": t.TempDir(), "shard-b": t.TempDir()}, 2*time.Millisecond, false, calmLease)

	mid := cl.midFlight(8, 40)
	room, source := mid.Room, mid.Shard
	target := "shard-a"
	if source == target {
		target = "shard-b"
	}

	body, _ := json.Marshal(map[string]any{"room": room, "target": target})
	resp, err := http.Post(cl.coordSrv.URL+"/migrate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate: status %d, body %s", resp.StatusCode, raw)
	}
	var rep MigrationReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("migrate: decode %v, body %s", err, raw)
	}
	if rep.From != source || rep.To != target || rep.Step < 8 || rep.PauseMs <= 0 {
		t.Fatalf("migration report %+v", rep)
	}

	v := cl.waitDone(60 * time.Second)
	assertHashes(t, v, want)

	var migrated *RoomPlacement
	for i := range v.Placements {
		if v.Placements[i].Room == room {
			migrated = &v.Placements[i]
		}
	}
	if migrated.Shard != target {
		t.Errorf("room %d finished on %s, want %s", room, migrated.Shard, target)
	}
	res := migrated.Result
	if !res.Recovery.Recovered || res.Recovery.SnapshotStep != rep.Step {
		t.Errorf("migrated room resumed from snapshot step %d (recovered=%v), drain barrier was %d",
			res.Recovery.SnapshotStep, res.Recovery.Recovered, rep.Step)
	}
	if res.Recovery.DecisionMismatches != 0 || res.Recovery.PlantMismatches != 0 {
		t.Errorf("shipped state replayed with mismatches: %+v", res.Recovery)
	}
	// The drain barrier hands the ingest ledger over too: the target counts
	// neither the source's samples nor the steps below the barrier as gaps.
	if got := v.Rollup.Samples + v.Rollup.Gaps; got != 3*60 || v.Rollup.Gaps != 0 {
		t.Errorf("ingest ledger %d samples + %d gaps, want exactly 180 + 0 — the migrated room's history was counted twice",
			v.Rollup.Samples, v.Rollup.Gaps)
	}
	if ct := cl.coord.Counters(); ct.MigrationsOK != 1 || ct.MigrationsFailed != 0 {
		t.Errorf("migration counters %+v", ct)
	}
	if _, metrics := httpGet(t, cl.coordSrv.URL+"/metrics"); !strings.Contains(metrics, "tesla_migrations_total{result=\"ok\"} 1") {
		t.Error("/metrics does not report the migration")
	}
}

// TestZombieShardFenced: a shard that stops heartbeating but keeps running
// is declared dead and its rooms re-placed; its own store locks hold the
// survivor off until the zombie's next beat is fenced (409), at which point
// it drains everything and re-registers. The fleet still converges to
// reference-identical trajectories.
func TestZombieShardFenced(t *testing.T) {
	fcfg := testFleetCfg(4, 41)
	fcfg.EvalS = 9000 // 150 steps: keep the zombie's rooms mid-flight through the fence window
	want := referenceHashes(t, fcfg)
	shared := t.TempDir()
	cl := startCluster(t, fcfg, map[string]string{"shard-a": shared, "shard-b": shared}, 2*time.Millisecond)

	victim := cl.midFlight(5, math.MaxInt).Shard
	cl.zombie(victim)

	v := cl.waitDone(120 * time.Second)
	assertHashes(t, v, want)

	ct := cl.coord.Counters()
	if ct.FencedHeartbeats < 1 {
		t.Errorf("zombie's beat was never fenced: %+v", ct)
	}
	if got := cl.shards[victim].FencedRooms(); got < 1 {
		t.Errorf("zombie relinquished %d rooms after fencing, want >= 1", got)
	}
	// The fenced shard re-registered as a fresh worker.
	cl.waitHealth(victim, ShardAlive, 10*time.Second)
}

// TestEpochFencingRejectsStaleReports exercises the coordinator's fencing
// rules directly with a scripted shard: stale lease epochs get 409, stale
// per-room assignment epochs are listed for relinquishment, and liveness
// stages from alive through suspect to dead.
func TestEpochFencingRejectsStaleReports(t *testing.T) {
	fcfg := testFleetCfg(2, 51)
	coord, err := NewCoordinator(CoordinatorConfig{
		Fleet:        fcfg,
		SuspectAfter: 30 * time.Millisecond,
		DeadAfter:    70 * time.Millisecond,
		RPC:          fastRPC(),
	})
	if err != nil {
		t.Fatal(err)
	}
	csrv := httptest.NewServer(coord.Handler())
	defer csrv.Close()

	// A scripted shard that accepts any assignment.
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"step":0,"recovered":false}`))
	}))
	defer fake.Close()

	post := func(path string, in any, out any) int {
		t.Helper()
		body, _ := json.Marshal(in)
		resp, err := http.Post(csrv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil {
			json.NewDecoder(resp.Body).Decode(out)
		}
		return resp.StatusCode
	}

	var reg RegisterResponse
	if code := post("/register", RegisterRequest{ID: "z", Addr: fake.URL}, &reg); code != http.StatusOK {
		t.Fatalf("register: %d", code)
	}
	coord.Reconcile() // places both rooms on z
	placed := coord.Fleet()
	if placed.Placed != 2 {
		t.Fatalf("placed %d rooms on the only shard, want 2", placed.Placed)
	}

	// Stale lease epoch → whole beat fenced with 409.
	if code := post("/heartbeat", HeartbeatRequest{ID: "z", Epoch: reg.Epoch + 1}, nil); code != http.StatusConflict {
		t.Fatalf("stale-lease heartbeat: %d, want 409", code)
	}
	if ct := coord.Counters(); ct.FencedHeartbeats != 1 {
		t.Fatalf("fenced heartbeats %d, want 1", ct.FencedHeartbeats)
	}

	// Valid lease, but one room reported at a stale assignment epoch: that
	// room is fenced individually, the fresh one is accepted.
	roomEpoch := placed.Placements[0].Epoch
	var hb HeartbeatResponse
	code := post("/heartbeat", HeartbeatRequest{ID: "z", Epoch: reg.Epoch, Rooms: []RoomStatus{
		{Room: 0, Epoch: roomEpoch + 7, Step: 5},
		{Room: 1, Epoch: placed.Placements[1].Epoch, Step: 9},
	}}, &hb)
	if code != http.StatusOK {
		t.Fatalf("heartbeat: %d", code)
	}
	if len(hb.FencedRooms) != 1 || hb.FencedRooms[0].Room != 0 {
		t.Fatalf("fenced rooms %v, want room 0", hb.FencedRooms)
	}
	if got := coord.Fleet().Placements[1].Step; got != 9 {
		t.Fatalf("accepted report not recorded: step %d, want 9", got)
	}

	// Liveness staging: quiet past SuspectAfter → suspect; past DeadAfter →
	// dead, rooms unplaced, and the next beat is fenced even with the old
	// lease epoch.
	time.Sleep(40 * time.Millisecond)
	coord.Reconcile()
	if h := coord.Fleet().Shards[0].Health; h != ShardSuspect {
		t.Fatalf("health after %v quiet: %s, want suspect", 40*time.Millisecond, h)
	}
	time.Sleep(40 * time.Millisecond)
	coord.Reconcile()
	view := coord.Fleet()
	if h := view.Shards[0].Health; h != ShardDead {
		t.Fatalf("health: %s, want dead", h)
	}
	if view.Unplaced+view.Placed != 2 || view.Unplaced == 0 {
		// Reconcile immediately re-places on... nobody: the ring is empty,
		// so both rooms must be unplaced.
		t.Fatalf("after death: %d placed, %d unplaced", view.Placed, view.Unplaced)
	}
	if code := post("/heartbeat", HeartbeatRequest{ID: "z", Epoch: reg.Epoch}, nil); code != http.StatusConflict {
		t.Fatalf("zombie beat after death: %d, want 409", code)
	}
}

// TestShardAutonomy: a shard with no coordinator at all hosts rooms to
// completion through its own API — the control plane is an optimization,
// never a dependency of control.
func TestShardAutonomy(t *testing.T) {
	fcfg := testFleetCfg(2, 61)
	want := referenceHashes(t, fcfg)
	sh, err := NewShard(ShardConfig{ID: "solo", Fleet: fcfg, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Stop()
	for room := 0; room < 2; room++ {
		if _, err := sh.Assign(room, 1); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		sts := sh.Statuses()
		done := 0
		for _, st := range sts {
			if st.Done {
				done++
			}
		}
		if done == 2 {
			for _, st := range sts {
				if st.Result.TrajectoryHash != want[st.Room] {
					t.Errorf("room %d: autonomous hash %#x, reference %#x", st.Room, st.Result.TrajectoryHash, want[st.Room])
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rooms not done: %+v", sts)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if ru := sh.Rollup(); ru.Samples != 2*60 {
		t.Errorf("autonomous rollup samples %d, want 120", ru.Samples)
	}
}

// TestCoordinatorDegradesWithoutShards: with every shard gone the
// coordinator still serves its fleet view and metrics — degraded, not down.
func TestCoordinatorDegradesWithoutShards(t *testing.T) {
	fcfg := testFleetCfg(2, 71)
	coord, err := NewCoordinator(CoordinatorConfig{Fleet: fcfg, RPC: fastRPC()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	coord.Reconcile() // no shards: nothing to place, nothing to crash on

	if code, body := httpGet(t, srv.URL+"/fleet"); code != http.StatusOK || !strings.Contains(body, "\"unplaced\":2") {
		t.Errorf("/fleet: %d %s", code, body)
	}
	if code, _ := httpGet(t, srv.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("healthz with all rooms unplaced: %d, want 503", code)
	}
	if code, body := httpGet(t, srv.URL+"/metrics"); code != http.StatusOK || !strings.Contains(body, "tesla_rooms_unplaced 2") {
		t.Errorf("/metrics: %d %s", code, body)
	}
}
