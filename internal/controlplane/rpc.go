package controlplane

import (
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tesla/internal/fleet"
	"tesla/internal/gateway"
	"tesla/internal/ingest"
	"tesla/internal/rng"
	"tesla/internal/telemetry"
)

// ErrFenced reports that the remote side rejected the call because the
// caller's lease or assignment epoch is stale — a zombie talking after its
// successor took over. Fenced calls are never retried: the correct reaction
// is to stop writing, not to try harder.
var ErrFenced = errors.New("controlplane: fenced: stale epoch")

// Wire messages. Everything crossing shard/coordinator boundaries is plain
// JSON over internal HTTP — debuggable with curl, no schema compiler.

// RoomStatus is one hosted room's state as reported in heartbeats.
type RoomStatus struct {
	Room    int    `json:"room"`
	Epoch   uint64 `json:"epoch"`
	Step    int    `json:"step"`
	Planned int    `json:"planned"`
	Done    bool   `json:"done"`
	// Result carries the room's final RoomResult once Done — including the
	// trajectory hash the coordinator uses to prove bit-identical
	// continuation after failover or migration.
	Result *fleet.RoomResult `json:"result,omitempty"`
	// Error reports a room whose loop died on this shard — surfaced so the
	// operator sees a wedged room instead of a silently stale step counter.
	Error string `json:"error,omitempty"`
}

// RegisterRequest announces a shard to the coordinator.
type RegisterRequest struct {
	ID   string `json:"id"`
	Addr string `json:"addr"` // base URL the coordinator dials back
}

// RegisterResponse grants the shard its lease epoch. Every later heartbeat
// must carry it; a lower epoch is fenced.
type RegisterResponse struct {
	Epoch uint64 `json:"epoch"`
}

// HeartbeatRequest is the shard's periodic lease renewal plus its full local
// state: room statuses (with per-assignment epochs), the shard's telemetry
// rollup, and optional field-gateway stats. Carrying state in the heartbeat
// keeps the control plane one round-trip wide and means the coordinator's
// fleet view degrades to "last heartbeat" rather than erroring when a shard
// goes quiet.
type HeartbeatRequest struct {
	ID      string           `json:"id"`
	Epoch   uint64           `json:"epoch"`
	Rooms   []RoomStatus     `json:"rooms"`
	Rollup  telemetry.Rollup `json:"rollup"`
	Gateway *gateway.Stats   `json:"gateway,omitempty"`
	Ingest  *ingest.Stats    `json:"ingest,omitempty"`
	// Field is the shard's field-bus poll ledger (per-room Modbus pollers
	// merged with retired rooms' final ledgers); set only on shards running
	// a field bus.
	Field *telemetry.Rollup `json:"field,omitempty"`
}

// HeartbeatResponse lists assignments the shard must relinquish: rooms whose
// epoch moved past the shard's copy (re-placed elsewhere while this shard
// was presumed dead).
type HeartbeatResponse struct {
	FencedRooms []FencedRoom `json:"fenced_rooms,omitempty"`
}

// FencedRoom is one rejected room report. Epoch is the assignment epoch that
// was fenced, so the shard only relinquishes a hosting at or below it — a
// newer assignment of the same room (re-placed back onto this shard while the
// verdict was in flight) survives.
type FencedRoom struct {
	Room  int    `json:"room"`
	Epoch uint64 `json:"epoch"`
}

// AssignRequest places a room on a shard at an assignment epoch.
type AssignRequest struct {
	Room  int    `json:"room"`
	Epoch uint64 `json:"epoch"`
}

// AssignResponse reports where the room's horizon starts on this shard —
// after durable recovery when the room's store has history.
type AssignResponse struct {
	Step      int  `json:"step"`
	Recovered bool `json:"recovered"`
}

// DrainRequest checkpoints a room at its current step boundary and closes
// its store (the migration write barrier).
type DrainRequest struct {
	Room int `json:"room"`
}

// DrainResponse reports the barrier step.
type DrainResponse struct {
	Step int `json:"step"`
	// GatewaySeqs is the drained room's field-bus hand-off token
	// (Poller.Seqs() at the drain barrier); nil when the source shard runs
	// no field bus. The coordinator copies it into the migration bundle.
	GatewaySeqs []uint64 `json:"gateway_seqs,omitempty"`
}

// BundleFile is one durable-store file shipped during migration. Data is
// base64 on the wire (encoding/json's []byte convention).
type BundleFile struct {
	Name string `json:"name"`
	Data []byte `json:"data"`
}

// Bundle is a drained room's complete durable store — newest snapshot plus
// WAL segments — as shipped from source to target shard.
type Bundle struct {
	Room  int          `json:"room"`
	Name  string       `json:"name"`
	Step  int          `json:"step"`
	Files []BundleFile `json:"files"`
	// GatewaySeqs carries the source host's field-bus poller hand-off token
	// so the target's poller resumes the room's sequence stream exactly —
	// every sequence number accounted once across both hosts' ledgers, no
	// duplicate samples, no double-counted gaps. Nil without a field bus.
	GatewaySeqs []uint64 `json:"gateway_seqs,omitempty"`
}

// ResumeRequest installs a shipped bundle on the target shard and resumes
// the room there at a new assignment epoch.
type ResumeRequest struct {
	Room   int    `json:"room"`
	Epoch  uint64 `json:"epoch"`
	Bundle Bundle `json:"bundle"`
}

// ResumeResponse reports the step the room resumed at.
type ResumeResponse struct {
	Step int `json:"step"`
}

// errorBody is the JSON error envelope every handler returns on failure.
type errorBody struct {
	Error string `json:"error"`
}

const idemHeader = "X-Idempotency-Key"

// ClientOptions tunes a control-plane RPC client. Zero values select
// defaults suitable for a LAN control plane.
type ClientOptions struct {
	// Ident prefixes idempotency keys so keys from different processes never
	// collide. Required in practice (shard ID or "coordinator").
	Ident string
	// Timeout bounds each attempt, not the whole call (default 2s).
	Timeout time.Duration
	// Retries is the number of re-attempts after the first try (default 3).
	// Only transport errors and 5xx responses are retried; fencing (409) and
	// other 4xx fail immediately.
	Retries int
	// BackoffMin/BackoffMax bound the exponential retry backoff
	// (defaults 20ms / 500ms).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Seed seeds the backoff jitter stream — deterministic per client, so
	// tests can pin retry timing.
	Seed uint64
}

func (o *ClientOptions) withDefaults() {
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 3
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 20 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 500 * time.Millisecond
	}
}

// Client is an internal-RPC client with per-attempt timeouts, bounded
// retries under jittered exponential backoff, and an idempotency key per
// logical call (stable across that call's retries, so a handler that
// executed a lost-response attempt replays its answer instead of acting
// twice).
type Client struct {
	base  string
	opts  ClientOptions
	hc    *http.Client
	nonce string
	seq   atomic.Uint64

	mu  sync.Mutex
	rnd *rng.Rand
}

// NewClient builds a client for the shard or coordinator at base URL.
func NewClient(base string, opts ClientOptions) *Client {
	opts.withDefaults()
	// The nonce makes idempotency keys unique per client instance, not just
	// per (ident, sequence). Without it, a rebuilt client — say the
	// coordinator re-registering a returned zombie shard — restarts its
	// sequence at zero and its calls replay stale cached responses from the
	// previous incarnation's calls instead of executing.
	var nb [8]byte
	_, _ = cryptorand.Read(nb[:])
	return &Client{
		base:  base,
		opts:  opts,
		hc:    &http.Client{},
		nonce: hex.EncodeToString(nb[:]),
		rnd:   rng.New(rng.SeedFor(opts.Seed, ringHash(opts.Ident))),
	}
}

// Base returns the client's base URL.
func (c *Client) Base() string { return c.base }

// backoff returns the jittered sleep before retry attempt n (0-based): an
// exponential base capped at BackoffMax, scaled by a uniform factor in
// [0.5, 1.5) so synchronized retriers spread out.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.opts.BackoffMin << uint(attempt)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	c.mu.Lock()
	u := c.rnd.Float64()
	c.mu.Unlock()
	return time.Duration((0.5 + u) * float64(d))
}

// Call performs one logical RPC: marshal in (nil for GET-style calls), POST
// to path, decode the JSON response into out (unless nil). Transport errors
// and 5xx responses are retried up to Retries times; a 409 maps to ErrFenced
// and any other non-2xx fails immediately with the server's error string.
func (c *Client) Call(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("controlplane: marshal %s: %w", path, err)
		}
	}
	key := fmt.Sprintf("%s-%s-%d", c.opts.Ident, c.nonce, c.seq.Add(1))

	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(c.backoff(attempt - 1)):
			}
		}
		retry, err := c.attempt(ctx, method, path, key, body, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retry {
			return err
		}
	}
	return fmt.Errorf("controlplane: %s %s: retries exhausted: %w", method, path, lastErr)
}

// attempt is one wire round-trip; retry reports whether the failure class is
// retryable.
func (c *Client) attempt(ctx context.Context, method, path, key string, body []byte, out any) (retry bool, err error) {
	actx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(idemHeader, key)
	resp, err := c.hc.Do(req)
	if err != nil {
		return true, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusConflict:
		return false, fmt.Errorf("%s %s: %w", method, path, ErrFenced)
	case resp.StatusCode >= 500:
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		return true, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, eb.Error)
	case resp.StatusCode >= 400:
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		return false, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, eb.Error)
	}
	if out == nil {
		return false, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		// The handler acted; only the response was lost. Retrying with the
		// same idempotency key replays the cached answer.
		return true, fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return false, nil
}

// idemCache replays responses for idempotency keys the server has already
// processed, so a retried mutation acts once. Bounded FIFO: old entries age
// out, which is safe because clients retry within seconds, not hours.
type idemCache struct {
	mu    sync.Mutex
	cap   int
	order []string
	byKey map[string]idemEntry
}

type idemEntry struct {
	status int
	body   []byte
}

func newIdemCache(capacity int) *idemCache {
	if capacity <= 0 {
		capacity = 512
	}
	return &idemCache{cap: capacity, byKey: make(map[string]idemEntry)}
}

// replay writes the cached response for key if present.
func (ic *idemCache) replay(w http.ResponseWriter, key string) bool {
	if key == "" {
		return false
	}
	ic.mu.Lock()
	e, ok := ic.byKey[key]
	ic.mu.Unlock()
	if !ok {
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.status)
	w.Write(e.body)
	return true
}

// store records the response sent for key.
func (ic *idemCache) store(key string, status int, body []byte) {
	if key == "" {
		return
	}
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if _, ok := ic.byKey[key]; ok {
		return
	}
	if len(ic.order) >= ic.cap {
		delete(ic.byKey, ic.order[0])
		ic.order = ic.order[1:]
	}
	ic.order = append(ic.order, key)
	ic.byKey[key] = idemEntry{status, append([]byte(nil), body...)}
}

// writeJSON sends v with the given status and records it against the
// request's idempotency key.
func writeJSON(w http.ResponseWriter, r *http.Request, ic *idemCache, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorBody{Error: err.Error()})
	}
	if ic != nil {
		ic.store(r.Header.Get(idemHeader), status, body)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeError sends a JSON error envelope.
func writeError(w http.ResponseWriter, r *http.Request, ic *idemCache, status int, format string, args ...any) {
	writeJSON(w, r, ic, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// jsonDecode reads a request body into v.
func jsonDecode(r *http.Request, v any) error {
	defer r.Body.Close()
	return json.NewDecoder(r.Body).Decode(v)
}
