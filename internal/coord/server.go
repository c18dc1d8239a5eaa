package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"gncg/internal/sweep"
)

// Wire types of the lease protocol. Cells travel as raw canonical bytes
// (sweep.CellJSON) and are re-canonicalized server-side before
// journaling, so a result's stored bytes never depend on HTTP framing.

type leaseRequest struct {
	Shard string `json:"shard"`
	Max   int    `json:"max"`
}

type leaseResponse struct {
	ID    int64 `json:"id"`
	Cells []int `json:"cells"`
	TTLMS int64 `json:"ttl_ms"`
	Done  bool  `json:"done"`
	// WaitMS is the suggested retry delay when no cells are pending but
	// the job is not complete (work may be stolen back shortly).
	WaitMS int64 `json:"wait_ms"`
}

type heartbeatRequest struct {
	ID    int64  `json:"id"`
	Shard string `json:"shard"`
}

type heartbeatResponse struct {
	OK bool `json:"ok"`
}

type reportRequest struct {
	ID    int64             `json:"id"`
	Shard string            `json:"shard"`
	Cells []json.RawMessage `json:"cells"`
}

// reportResponse tells the reporting worker whether the job is now
// complete, so the worker that reports the last cell exits without
// another /lease round-trip to a coordinator that may be closing.
type reportResponse struct {
	OK   bool `json:"ok"`
	Done bool `json:"done"`
}

type jobResponse struct {
	Job JobSpec `json:"job"`
}

// Server exposes the coordinator over HTTP: the worker protocol (/job,
// /lease, /heartbeat, /report) and the observability surface (/status,
// /results, /shutdown). It also runs the lease-expiry sweep.
type Server struct {
	co   *Coordinator
	http *http.Server
	ln   net.Listener

	stopOnce sync.Once
	shutOnce sync.Once
	stopCh   chan struct{} // closed on Close
	shutReq  chan struct{} // closed on /shutdown
}

// NewServer wraps a coordinator. Start must be called to serve.
func NewServer(co *Coordinator) *Server {
	s := &Server{co: co, stopCh: make(chan struct{}), shutReq: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /job", s.handleJob)
	mux.HandleFunc("POST /lease", s.handleLease)
	mux.HandleFunc("POST /heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /report", s.handleReport)
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("GET /results", s.handleResults)
	mux.HandleFunc("POST /shutdown", s.handleShutdown)
	s.http = &http.Server{Handler: mux}
	return s
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves in the
// background, running the lease-expiry sweep until Close. It returns the
// resolved address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	go s.http.Serve(ln)
	go s.expiryLoop()
	return ln.Addr().String(), nil
}

func (s *Server) expiryLoop() {
	ttl := s.co.opts.ttl()
	tick := time.NewTicker(ttl / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-tick.C:
			s.co.ExpireStale()
		}
	}
}

// ShutdownRequested is closed when a client POSTs /shutdown — the
// service owner's signal to stop lingering.
func (s *Server) ShutdownRequested() <-chan struct{} { return s.shutReq }

// closeGrace bounds how long Close waits for in-flight replies.
const closeGrace = 5 * time.Second

// Close stops the listener and the expiry loop. Requests already being
// handled — the POST /shutdown that ended a linger, the /report of the
// job's last cell — get their replies for up to closeGrace before the
// remaining connections are cut.
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.stopCh) })
	ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if err != nil {
		s.http.Close()
	}
	return err
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, jobResponse{Job: s.co.Job()})
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	id, cells, ttl, done := s.co.Lease(req.Shard, req.Max)
	// Idle workers poll briskly (bounded below a TTL fraction): pending
	// work reappears at lease-expiry granularity, but the tail of a job
	// should not stall a quarter-TTL after the last steal.
	wait := ttl / 4
	if wait > 250*time.Millisecond {
		wait = 250 * time.Millisecond
	}
	writeJSON(w, leaseResponse{
		ID: id, Cells: cells, TTLMS: ttl.Milliseconds(), Done: done,
		WaitMS: wait.Milliseconds(),
	})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	writeJSON(w, heartbeatResponse{OK: s.co.Heartbeat(req.ID, req.Shard)})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	var req reportRequest
	if !readJSON(w, r, &req) {
		return
	}
	cells := make([]sweep.CellResult, 0, len(req.Cells))
	for i, raw := range req.Cells {
		c, err := sweep.DecodeCellJSON(raw)
		if err != nil {
			http.Error(w, fmt.Sprintf("report cell %d: %v", i, err), http.StatusBadRequest)
			return
		}
		cells = append(cells, c)
	}
	if err := s.co.Report(req.ID, req.Shard, cells); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	resp := reportResponse{OK: true}
	select {
	case <-s.co.Done():
		resp.Done = true
	default:
	}
	writeJSON(w, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.co.Status())
}

// handleResults streams the merged-so-far result set in the canonical
// interchange encoding — a partial but always-consistent view of the
// final output.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	rs, err := s.co.store.Results()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	rs.EncodeJSON(w)
}

func (s *Server) handleShutdown(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, heartbeatResponse{OK: true})
	s.shutOnce.Do(func() { close(s.shutReq) })
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}
