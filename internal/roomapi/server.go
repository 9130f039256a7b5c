package roomapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coolopt/internal/baseline"
	"coolopt/internal/clock"
	"coolopt/internal/engine"
	"coolopt/internal/machineroom"
)

// maxAdvanceSeconds caps one /v1/advance call so a stray client cannot
// wedge the server in a near-endless integration loop.
const maxAdvanceSeconds = 24 * 3600

// Server serves one machine room over HTTP. Build with NewServer; it
// implements http.Handler.
//
// Mutating endpoints are serialized by an internal mutex. Read endpoints
// are served from a generation-stamped view: every executed mutation
// bumps a generation counter, and the first read after a mutation
// rebuilds the view under the lock while later reads return it straight
// from an atomic pointer. Reads therefore never serialize behind a long
// /v1/advance — they serve the last settled state — and repeated sensor
// polls between mutations return one consistent snapshot instead of
// draining the room's measurement-noise streams.
//
// With WithEngine, the server additionally exposes the planning surface
// (/v1/plan, /v1/consolidate, /v1/maxload) straight off the engine's
// immutable snapshot; planning never touches the room or its lock.
//
// Mutating endpoints honor the SeqHeader idempotency token: the server
// remembers the most recent token and its recorded response, and a
// request re-presenting that token gets the recording back without
// re-executing. One slot suffices for the intended topology — a single
// controller that never pipelines commands — and a token older than the
// remembered one is answered 409, since its command has been superseded.
// Tokens are scoped per client ("<client>:<seq>"), so a newly connected
// controller starting its counter over is a fresh command stream, not a
// stale replay.
type Server struct {
	mu     sync.Mutex
	room   machineroom.Room
	mux    *http.ServeMux
	engine *engine.Engine

	clk        clock.Clock
	lat        *latencySet
	reqTimeout time.Duration

	gen  atomic.Uint64 // bumped after every executed mutation
	view atomic.Pointer[view]

	seqValid  bool
	seqClient string
	seq       uint64
	seqStatus int
	seqBody   []byte // recorded JSON response; nil for 204
}

// view is one settled read snapshot of the room.
type view struct {
	gen     uint64
	info    RoomInfo
	sensors Sensors
	crac    CRACState
}

var _ http.Handler = (*Server)(nil)

// Option configures NewServer.
type Option func(*Server)

// WithEngine attaches a plan-serving engine, enabling the /v1/plan,
// /v1/consolidate, and /v1/maxload endpoints.
func WithEngine(e *engine.Engine) Option {
	return func(s *Server) { s.engine = e }
}

// WithClock substitutes the time source behind the per-endpoint latency
// histograms (default: the wall clock). Tests inject a clock.Fake so
// quantiles are exact and replayable.
func WithClock(c clock.Clock) Option {
	return func(s *Server) { s.clk = c }
}

// WithRequestTimeout caps every planning request's server-side compute
// at d: the engine context is the client's request context bounded by
// this deadline, so one slow degraded sweep cannot hold a connection
// (or an in-flight slot) forever. A blown deadline is answered 503 +
// Retry-After. Zero (the default) means only the client's own deadline
// applies.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.reqTimeout = d }
}

// NewServer wraps a room.
func NewServer(room machineroom.Room, opts ...Option) (*Server, error) {
	if room == nil {
		return nil, fmt.Errorf("roomapi: nil room")
	}
	s := &Server{room: room, mux: http.NewServeMux(), clk: clock.Wall, lat: newLatencySet()}
	for _, opt := range opts {
		opt(s)
	}
	// Every serving route is wrapped with latency recording; the probe
	// endpoints are not — they are polled constantly and would drown the
	// histograms without telling anyone anything.
	for route, h := range map[string]http.HandlerFunc{
		"GET /v1/room":                 s.handleRoom,
		"GET /v1/sensors":              s.handleSensors,
		"POST /v1/machines/{id}/load":  s.handleSetLoad,
		"POST /v1/machines/{id}/power": s.handleSetPower,
		"GET /v1/crac":                 s.handleCRAC,
		"POST /v1/crac/setpoint":       s.handleSetPoint,
		"POST /v1/advance":             s.handleAdvance,
		"GET /v1/plan":                 s.handlePlan,
		"GET /v1/consolidate":          s.handleConsolidate,
		"GET /v1/maxload":              s.handleMaxLoad,
		"GET /v1/stats":                s.handleStats,
	} {
		s.mux.HandleFunc(route, s.timed(route, h))
	}
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	return s, nil
}

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// currentView returns the read snapshot for the current generation,
// rebuilding it under the lock only when a mutation has landed since the
// last build. A long-running mutation does not block readers: the
// generation only bumps when it completes, so readers keep serving the
// previous settled view.
func (s *Server) currentView() *view {
	g := s.gen.Load()
	if v := s.view.Load(); v != nil && v.gen == g {
		return v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Reload under the lock: another reader may have rebuilt, or a
	// mutation may have landed while we waited.
	g = s.gen.Load()
	if v := s.view.Load(); v != nil && v.gen == g {
		return v
	}
	v := s.buildView(g)
	s.view.Store(v)
	return v
}

// buildView reads the room once; the caller holds s.mu.
func (s *Server) buildView(gen uint64) *view {
	crac := CRACState{
		SetPointC: s.room.SetPoint(),
		SupplyC:   s.room.Supply(),
		ReturnC:   s.room.ReturnTemp(),
		PowerW:    s.room.MeasuredCRACPower(),
	}
	v := &view{
		gen:  gen,
		info: RoomInfo{Machines: s.room.Size(), TimeS: s.room.Time()},
		sensors: Sensors{
			TimeS:    s.room.Time(),
			Machines: make([]MachineSensors, s.room.Size()),
			CRAC:     crac,
		},
		crac: crac,
	}
	for i := range v.sensors.Machines {
		v.sensors.Machines[i] = MachineSensors{
			ID:       i,
			On:       s.room.IsOn(i),
			CPUTempC: s.room.MeasuredCPUTemp(i),
			PowerW:   s.room.MeasuredServerPower(i),
		}
	}
	return v
}

func (s *Server) handleRoom(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.currentView().info)
}

func (s *Server) handleSensors(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.currentView().sensors)
}

func (s *Server) handleCRAC(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.currentView().crac)
}

func (s *Server) handleSetLoad(w http.ResponseWriter, r *http.Request) {
	id, ok := machineID(w, r, s.roomSize())
	if !ok {
		return
	}
	var req SetLoadRequest
	if !readJSON(w, r, &req) {
		return
	}
	s.mutate(w, r, func() (int, any) {
		if err := s.room.SetLoad(id, req.Utilization); err != nil {
			return http.StatusBadRequest, ErrorResponse{Error: err.Error()}
		}
		return http.StatusNoContent, nil
	})
}

func (s *Server) handleSetPower(w http.ResponseWriter, r *http.Request) {
	id, ok := machineID(w, r, s.roomSize())
	if !ok {
		return
	}
	var req SetPowerRequest
	if !readJSON(w, r, &req) {
		return
	}
	s.mutate(w, r, func() (int, any) {
		if err := s.room.SetPower(id, req.On); err != nil {
			return http.StatusBadRequest, ErrorResponse{Error: err.Error()}
		}
		return http.StatusNoContent, nil
	})
}

func (s *Server) handleSetPoint(w http.ResponseWriter, r *http.Request) {
	var req SetPointRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.SetPointC < -20 || req.SetPointC > 60 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("set point %v °C outside sanity range", req.SetPointC))
		return
	}
	s.mutate(w, r, func() (int, any) {
		s.room.SetSetPoint(req.SetPointC)
		return http.StatusNoContent, nil
	})
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req AdvanceRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Seconds <= 0 || req.Seconds > maxAdvanceSeconds {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("advance of %v s outside (0, %d]", req.Seconds, maxAdvanceSeconds))
		return
	}
	s.mutate(w, r, func() (int, any) {
		s.room.Run(req.Seconds)
		return http.StatusOK, RoomInfo{Machines: s.room.Size(), TimeS: s.room.Time()}
	})
}

// handlePlan serves Engine.Plan: ?load=<units> with optional
// &method=<1-8>, &avoid=<id,id,...>, &safe=true, &supply=<°C>,
// &margin=<°C>. Served straight off the engine's snapshot — no room
// lock.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if s.engine == nil {
		writeError(w, http.StatusNotImplemented, errors.New("no planning engine configured"))
		return
	}
	q := r.URL.Query()
	load, err := strconv.ParseFloat(q.Get("load"), 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad load %q", q.Get("load")))
		return
	}
	req := engine.Request{Load: load}
	if raw := q.Get("method"); raw != "" {
		m, err := strconv.Atoi(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad method %q", raw))
			return
		}
		req.Method = baseline.Method(m)
	}
	if raw := q.Get("avoid"); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad avoid list %q", raw))
				return
			}
			req.Avoid = append(req.Avoid, id)
		}
	}
	req.Safe = q.Get("safe") == "true"
	if raw := q.Get("supply"); raw != "" {
		if req.AchievedSupplyC, err = strconv.ParseFloat(raw, 64); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad supply %q", raw))
			return
		}
	}
	if raw := q.Get("margin"); raw != "" {
		if req.MarginC, err = strconv.ParseFloat(raw, 64); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad margin %q", raw))
			return
		}
	}
	ctx := r.Context()
	if s.reqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.reqTimeout)
		defer cancel()
	}
	resp, err := s.engine.Plan(ctx, req)
	if err != nil {
		writePlanError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, PlanResult{
		Epoch:        resp.Epoch,
		Method:       int(resp.Method),
		On:           resp.Plan.On,
		Loads:        resp.Plan.Loads,
		TAcC:         float64(resp.Plan.TAcC),
		ShedLoad:     resp.ShedLoad,
		Capacity:     resp.Capacity,
		Degraded:     resp.Degraded,
		Cached:       resp.Cached,
		Shared:       resp.Shared,
		Hierarchical: resp.Hierarchical,
	})
}

// handleConsolidate serves the raw consolidation query:
// ?load=<units>&mink=<k>.
func (s *Server) handleConsolidate(w http.ResponseWriter, r *http.Request) {
	if s.engine == nil {
		writeError(w, http.StatusNotImplemented, errors.New("no planning engine configured"))
		return
	}
	q := r.URL.Query()
	load, err := strconv.ParseFloat(q.Get("load"), 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad load %q", q.Get("load")))
		return
	}
	minK := 1
	if raw := q.Get("mink"); raw != "" {
		if minK, err = strconv.Atoi(raw); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad mink %q", raw))
			return
		}
	}
	sel, err := s.engine.Consolidate(load, minK)
	if err != nil {
		writePlanError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ConsolidateResult{
		Epoch: s.engine.Epoch(), Subset: sel.Subset, T: sel.T, PowerW: sel.Power,
	})
}

// handleMaxLoad serves the dual budget query: ?budget=<W>.
func (s *Server) handleMaxLoad(w http.ResponseWriter, r *http.Request) {
	if s.engine == nil {
		writeError(w, http.StatusNotImplemented, errors.New("no planning engine configured"))
		return
	}
	budget, err := strconv.ParseFloat(r.URL.Query().Get("budget"), 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad budget %q", r.URL.Query().Get("budget")))
		return
	}
	res, err := s.engine.MaxLoad(budget)
	if err != nil {
		writePlanError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, MaxLoadResult{
		Epoch: s.engine.Epoch(), Load: res.Load, Subset: res.Subset, T: res.T,
	})
}

// handleStats serves the engine's serving counters (GET /v1/stats): the
// engine.Stats fields verbatim — cache hit/miss/eviction counts,
// overload/breaker state, the installed snapshot's shape — plus the
// per-endpoint latency digests under "latency".
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	if s.engine == nil {
		writeError(w, http.StatusNotImplemented, errors.New("no planning engine configured"))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		engine.Stats
		Latency map[string]LatencySummary `json:"latency"`
	}{s.engine.Stats(), s.lat.summaries()})
}

// mutate executes a state-changing command under the room lock with
// idempotent-replay support: a request re-presenting the last executed
// SeqHeader token gets the recorded response back without executing, a
// token older than the last is rejected 409, and requests without a
// token (or with a fresh one) execute normally. The executed response —
// success or failure — is recorded, so a duplicate of a failed command
// fails identically instead of executing. Every executed command bumps
// the read generation, invalidating the cached read view.
func (s *Server) mutate(w http.ResponseWriter, r *http.Request, exec func() (int, any)) {
	raw := r.Header.Get(SeqHeader)
	var (
		client string
		seq    uint64
		hasSeq bool
	)
	if raw != "" {
		// Tokens are "<client>:<seq>" (or a bare number, an empty
		// client). The client scope keeps a freshly connected
		// controller's counter from colliding with its predecessor's.
		seqStr := raw
		if k := strings.LastIndexByte(raw, ':'); k >= 0 {
			client, seqStr = raw[:k], raw[k+1:]
		}
		parsed, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s token %q", SeqHeader, raw))
			return
		}
		seq, hasSeq = parsed, true
	}

	s.mu.Lock()
	if hasSeq && s.seqValid && client == s.seqClient {
		if seq == s.seq {
			status, body := s.seqStatus, s.seqBody
			s.mu.Unlock()
			writeRecorded(w, status, body)
			return
		}
		if seq < s.seq {
			last := s.seq
			s.mu.Unlock()
			writeError(w, http.StatusConflict,
				fmt.Errorf("stale %s token %d (last executed %d)", SeqHeader, seq, last))
			return
		}
	}
	status, v := exec()
	s.gen.Add(1)
	var body []byte
	if v != nil {
		body, _ = json.Marshal(v)
	}
	if hasSeq {
		s.seqValid, s.seqClient, s.seq, s.seqStatus, s.seqBody = true, client, seq, status, body
	}
	s.mu.Unlock()
	writeRecorded(w, status, body)
}

// writeRecorded writes a response from its recorded form.
func writeRecorded(w http.ResponseWriter, status int, body []byte) {
	if body == nil {
		w.WriteHeader(status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func (s *Server) roomSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.room.Size()
}

// RoomLocked runs f on the underlying room under the server's mutation
// lock. It exists for in-process sidecars that must read live sensors
// concurrently with HTTP traffic — pland's continuous re-profiler
// samples through it — without racing a /v1/setload or /v1/advance
// executing on another connection. Keep f short: it holds the same lock
// every mutating endpoint takes.
func (s *Server) RoomLocked(f func(machineroom.Room)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(s.room)
}

func machineID(w http.ResponseWriter, r *http.Request, size int) (int, bool) {
	raw := r.PathValue("id")
	id, err := strconv.Atoi(strings.TrimSpace(raw))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad machine id %q", raw))
		return 0, false
	}
	if id < 0 || id >= size {
		writeError(w, http.StatusNotFound, fmt.Errorf("machine %d out of range [0, %d)", id, size))
		return 0, false
	}
	return id, true
}

func readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding static wire types cannot fail; a broken connection is
	// the client's problem.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}
