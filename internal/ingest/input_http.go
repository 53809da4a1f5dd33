package ingest

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
)

// maxWriteBody bounds one POST /write batch.
const maxWriteBody = 16 << 20

// HTTPInput accepts line-protocol batches over POST /write on its own
// listener — the push path for collectors that batch on the edge. Decoding
// is the batched wire path (telemetry.IngestBatch), so good lines land
// even when a batch carries bad ones; the response reports exactly which
// lines were rejected and why.
type HTTPInput struct {
	addr string

	mu   sync.Mutex
	ln   net.Listener
	srv  *http.Server
	sink *Sink

	requests atomic.Uint64
	errors   atomic.Uint64
}

// NewHTTPInput builds an input that will listen on addr (host:port;
// port 0 picks a free port, readable from Addr after Start).
func NewHTTPInput(addr string) *HTTPInput { return &HTTPInput{addr: addr} }

// Name implements Input.
func (h *HTTPInput) Name() string { return "http" }

// Addr returns the bound listen address once started.
func (h *HTTPInput) Addr() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ln == nil {
		return h.addr
	}
	return h.ln.Addr().String()
}

// Start implements Input: bind and serve.
func (h *HTTPInput) Start(sink *Sink) error {
	ln, err := net.Listen("tcp", h.addr)
	if err != nil {
		return fmt.Errorf("http input: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/write", h.handleWrite)
	srv := &http.Server{Handler: mux}
	h.mu.Lock()
	h.ln, h.srv, h.sink = ln, srv, sink
	h.mu.Unlock()
	go srv.Serve(ln)
	return nil
}

func (h *HTTPInput) handleWrite(w http.ResponseWriter, r *http.Request) {
	h.requests.Add(1)
	if r.Method != http.MethodPost {
		h.errors.Add(1)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// Read one byte past the limit so an oversized batch is refused whole:
	// parsing a truncated body would land a prefix of it, cut a line
	// mid-field, and leave the tail out of the exact ledger.
	body, err := io.ReadAll(io.LimitReader(r.Body, maxWriteBody+1))
	if err != nil {
		h.errors.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > maxWriteBody {
		h.errors.Add(1)
		http.Error(w, fmt.Sprintf("batch exceeds %d bytes; split it", maxWriteBody), http.StatusRequestEntityTooLarge)
		return
	}
	h.mu.Lock()
	sink := h.sink
	h.mu.Unlock()
	n, rejected, ierr := sink.AddLines(string(body))
	if rejected > 0 {
		h.errors.Add(1)
		http.Error(w, fmt.Sprintf("wrote %d lines, rejected %d: %v", n, rejected, ierr), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "wrote %d lines\n", n)
}

// Gather implements Input; HTTP is push-based, so this is a no-op.
func (h *HTTPInput) Gather(float64) error { return nil }

// Stop implements Input: close the listener and in-flight conns.
func (h *HTTPInput) Stop() error {
	h.mu.Lock()
	srv := h.srv
	h.mu.Unlock()
	if srv != nil {
		return srv.Close()
	}
	return nil
}

// Stats implements Input. The sink ledger (attempts/ingested/dropped) is
// filled in by the Service; Gathers doubles as the request counter here.
func (h *HTTPInput) Stats() InputStats {
	return InputStats{
		Name:    "http",
		Gathers: h.requests.Load(),
		Errors:  h.errors.Load(),
	}
}
