package ingest

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tesla/internal/telemetry"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRegistryBuild(t *testing.T) {
	r := NewRegistry()
	in, err := r.Build("http=127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if in.Name() != "http" {
		t.Fatalf("built %q", in.Name())
	}
	if _, err := r.Build("nope"); err == nil {
		t.Fatal("unknown input accepted")
	}
	if _, err := r.Build("subscribe"); err == nil {
		t.Fatal("subscribe with no targets accepted")
	}
	if err := r.Register("http", func(string) (Input, error) { return nil, nil }); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := r.Register("custom", func(arg string) (Input, error) {
		return NewHTTPInput(arg), nil
	}); err != nil {
		t.Fatal(err)
	}
	ins, err := r.BuildAll("http=127.0.0.1:0, custom=127.0.0.1:0, subscribe=127.0.0.1:1;127.0.0.1:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 3 {
		t.Fatalf("built %d inputs", len(ins))
	}
	subs := ins[2].(*SubscribeInput)
	if len(subs.subs) != 2 {
		t.Fatalf("subscribe spec parsed into %d targets", len(subs.subs))
	}
}

// TestHTTPInputEndToEnd drives a service with one HTTP input: good batches
// land, mixed batches keep their good lines with the bad ones counted, and
// the ledger stays exact (Attempts == Ingested + Dropped).
func TestHTTPInputEndToEnd(t *testing.T) {
	db := telemetry.NewDB()
	svc := NewService(Config{DB: db, GatherEvery: time.Hour})
	h := NewHTTPInput("127.0.0.1:0")
	if err := svc.Add(h); err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()

	url := "http://" + h.Addr() + "/write"
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(url, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := post("acu,device=d0 power_kw=1.5 10\nacu,device=d0 power_kw=2.5 20\n"); code != 200 {
		t.Fatalf("good batch: %d %s", code, body)
	}
	// Mixed batch: the good line must land, the bad one must be reported
	// with its line number.
	code, body := post("acu,device=d0 power_kw=3.5 30\nbogus line here extra\n")
	if code != 400 || !strings.Contains(body, "line 2") {
		t.Fatalf("mixed batch: %d %q", code, body)
	}
	p, ok := db.Latest("acu", map[string]string{"device": "d0", "field": "power_kw"})
	if !ok || p.TimeS != 30 {
		t.Fatalf("good line from mixed batch missing: %+v ok=%v", p, ok)
	}

	st := svc.Stats()
	if st.Attempts != st.Ingested+st.Dropped {
		t.Fatalf("ledger broken: attempts %d != ingested %d + dropped %d", st.Attempts, st.Ingested, st.Dropped)
	}
	if st.Attempts != 4 || st.Ingested != 3 || st.Dropped != 1 {
		t.Fatalf("ledger = %d/%d/%d, want 4/3/1", st.Attempts, st.Ingested, st.Dropped)
	}
	is := svc.InputStats()
	if len(is) != 1 || is[0].Attempts != 4 || is[0].Dropped != 1 {
		t.Fatalf("input stats: %+v", is)
	}
}

// TestHTTPInputRejectsOversizedBatch: a body past the batch limit is
// refused with 413 before parsing — no prefix of it lands, so the exact
// ledger never sees a truncated batch.
func TestHTTPInputRejectsOversizedBatch(t *testing.T) {
	db := telemetry.NewDB()
	svc := NewService(Config{DB: db, GatherEvery: time.Hour})
	h := NewHTTPInput("127.0.0.1:0")
	if err := svc.Add(h); err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()

	line := "m,host=a f=1 1700000000\n"
	body := strings.Repeat(line, maxWriteBody/len(line)+1)
	resp, err := http.Post("http://"+h.Addr()+"/write", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status = %d, want 413", resp.StatusCode)
	}
	if st := svc.Stats(); st.Attempts != 0 || st.Ingested != 0 || db.Len() != 0 {
		t.Fatalf("oversized batch reached the store: ledger %d/%d, %d points", st.Attempts, st.Ingested, db.Len())
	}
	// A batch at the limit still lands whole.
	body = strings.Repeat(line, maxWriteBody/len(line))
	resp, err = http.Post("http://"+h.Addr()+"/write", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if want := uint64(maxWriteBody / len(line)); resp.StatusCode != http.StatusOK || svc.Stats().Ingested != want {
		t.Fatalf("batch at the limit: status %d, ingested %d, want 200 and %d", resp.StatusCode, svc.Stats().Ingested, want)
	}
}

// TestServiceStartFailureUnwinds: a failing input start stops the inputs
// already started instead of leaking their listeners.
func TestServiceStartFailureUnwinds(t *testing.T) {
	db := telemetry.NewDB()
	svc := NewService(Config{DB: db})
	good := NewHTTPInput("127.0.0.1:0")
	svc.Add(good)
	svc.Add(NewSubscribeInput(nil, SubscribeConfig{})) // no targets: Start errors
	if err := svc.Start(); err == nil {
		t.Fatal("Start succeeded with a broken input")
	}
	// The good input's port must be released again.
	waitUntil(t, time.Second, func() bool {
		h := NewHTTPInput(good.Addr())
		if err := h.Start(NewSink(db)); err != nil {
			return false
		}
		h.Stop()
		return true
	}, "unwound input to release its listener")
}

// TestStatsMerge: fleet merging is field-wise exact, TSDB block included.
func TestStatsMerge(t *testing.T) {
	a := Stats{Inputs: 1, Attempts: 10, Ingested: 8, Dropped: 2, SeqGaps: 1, Gathers: 4}
	a.TSDB.RawPoints = 5
	a.TSDB.Inserted = 8
	b := Stats{Inputs: 2, Attempts: 7, Ingested: 7, Subscriptions: 3, Resubscribes: 1}
	b.TSDB.RawPoints = 2
	b.TSDB.Inserted = 7
	a.Merge(b)
	if a.Inputs != 3 || a.Attempts != 17 || a.Ingested != 15 || a.Dropped != 2 {
		t.Fatalf("merged %+v", a)
	}
	if a.TSDB.RawPoints != 7 || a.TSDB.Inserted != 15 {
		t.Fatalf("TSDB block not merged: %+v", a.TSDB)
	}
	if a.Subscriptions != 3 || a.Resubscribes != 1 || a.SeqGaps != 1 {
		t.Fatalf("merged %+v", a)
	}
}

// TestGatherLoopDrivesPullInputs: the service cadence reaches Gather.
func TestGatherLoopDrivesPullInputs(t *testing.T) {
	db := telemetry.NewDB()
	svc := NewService(Config{DB: db, GatherEvery: 5 * time.Millisecond})
	g := &countingInput{}
	svc.Add(g)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()
	waitUntil(t, 2*time.Second, func() bool { return g.Stats().Gathers >= 3 }, "3 gathers")
	if st := svc.Stats(); st.GatherErrors == 0 {
		t.Fatalf("gather errors not surfaced: %+v", st)
	}
}

type countingInput struct {
	mu      sync.Mutex
	gathers uint64
}

func (c *countingInput) Name() string      { return "counting" }
func (c *countingInput) Start(*Sink) error { return nil }
func (c *countingInput) Stop() error       { return nil }
func (c *countingInput) Gather(ts float64) error {
	c.mu.Lock()
	c.gathers++
	c.mu.Unlock()
	return fmt.Errorf("always fails")
}
func (c *countingInput) Stats() InputStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return InputStats{Name: "counting", Gathers: c.gathers}
}
