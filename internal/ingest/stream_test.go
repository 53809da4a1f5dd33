package ingest

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeSubConn is a scripted net.Conn for driving serveConn directly: it
// hands the server one SUB request line, swallows every write while
// recording the frame and how much of the write deadline was left when the
// frame was flushed, and blocks further reads until Close.
type fakeSubConn struct {
	req       string
	reqOnce   sync.Once
	closed    chan struct{}
	closeOnce sync.Once

	mu       sync.Mutex
	deadline time.Time
	budgets  []time.Duration
	frames   []string
}

func newFakeSubConn(req string) *fakeSubConn {
	return &fakeSubConn{req: req, closed: make(chan struct{})}
}

func (c *fakeSubConn) Read(p []byte) (int, error) {
	n, served := 0, false
	c.reqOnce.Do(func() { n = copy(p, c.req); served = true })
	if served {
		return n, nil
	}
	<-c.closed
	return 0, net.ErrClosed
}

func (c *fakeSubConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budgets = append(c.budgets, time.Until(c.deadline))
	c.frames = append(c.frames, string(p))
	return len(p), nil
}

func (c *fakeSubConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

func (c *fakeSubConn) snapshot() (budgets []time.Duration, frames []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.budgets...), append([]string(nil), c.frames...)
}

type fakeAddr struct{}

func (fakeAddr) Network() string { return "tcp" }
func (fakeAddr) String() string  { return "fake" }

func (c *fakeSubConn) LocalAddr() net.Addr               { return fakeAddr{} }
func (c *fakeSubConn) RemoteAddr() net.Addr              { return fakeAddr{} }
func (c *fakeSubConn) SetDeadline(t time.Time) error     { return c.SetWriteDeadline(t) }
func (c *fakeSubConn) SetReadDeadline(t time.Time) error { return nil }
func (c *fakeSubConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return nil
}

// waitFrames polls the conn until pred is satisfied or the deadline passes.
func waitFrames(t *testing.T, c *fakeSubConn, pred func([]string) bool) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, frames := c.snapshot()
		if pred(frames) {
			return frames
		}
		if time.Now().After(deadline) {
			t.Fatalf("frames never satisfied predicate; got %q", frames)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamIdleHeartbeatWriteBudget is the regression gate for the
// deadline-before-wait bug: serveConn used to arm the 4×heartbeat write
// deadline and THEN sit in the up-to-heartbeat idle wait, silently
// spending a quarter of the slow-subscriber budget before the heartbeat
// frame ever hit the wire. Every idle heartbeat must be flushed with
// (almost) the full 4× budget remaining.
func TestStreamIdleHeartbeatWriteBudget(t *testing.T) {
	hb := 100 * time.Millisecond
	s, err := NewStreamServer("127.0.0.1:0", StreamServerConfig{Heartbeat: hb})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conn := newFakeSubConn("SUB 1\n")
	s.wg.Add(1)
	go s.serveConn(conn)

	waitFrames(t, conn, func(frames []string) bool { return len(frames) >= 3 })
	budgets, _ := conn.snapshot()
	for i, b := range budgets[:3] {
		if b < 7*hb/2 {
			t.Errorf("idle heartbeat %d flushed with only %v of write budget left, want ≈4×%v — deadline armed before the idle wait", i, b, hb)
		}
	}
}

// TestStreamIdleHeartbeatFreshHead is the regression gate for the stale
// idle heartbeat: the H frame used to carry a head snapshotted BEFORE the
// idle wait, so a subscriber could be told a head that predated records
// published while the server was waiting. A record published during the
// wait (injected deterministically through the idleWake test seam) must be
// reflected in the very next heartbeat.
func TestStreamIdleHeartbeatFreshHead(t *testing.T) {
	s, err := NewStreamServer("127.0.0.1:0", StreamServerConfig{Heartbeat: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var pub sync.Once
	s.idleWake = func() {
		pub.Do(func() { s.Publish("acu power_kw=3.2 0") })
	}

	conn := newFakeSubConn("SUB 1\n")
	s.wg.Add(1)
	go s.serveConn(conn)

	frames := waitFrames(t, conn, func(frames []string) bool {
		for _, f := range frames {
			if strings.HasPrefix(f, "H ") {
				return true
			}
		}
		return false
	})
	for _, f := range frames {
		if !strings.HasPrefix(f, "H ") {
			continue
		}
		if f != "H 1\n" {
			t.Fatalf("idle heartbeat reported %q, want \"H 1\\n\" — head captured before the wait is stale", strings.TrimSpace(f))
		}
		break
	}
}
