// Package roomapi serves a machine room over HTTP/JSON — the control
// plane a deployed installation exposes to the central optimizer. The
// API mirrors machineroom.Room one-to-one so internal/roomclient can
// implement that interface remotely:
//
//	GET  /v1/room                      room metadata and clock
//	GET  /v1/sensors                   bulk sensor snapshot
//	POST /v1/machines/{id}/load        {"utilization": 0.5}
//	POST /v1/machines/{id}/power       {"on": true}
//	GET  /v1/crac                      CRAC state
//	POST /v1/crac/setpoint             {"setPointC": 24}
//	POST /v1/advance                   {"seconds": 100}
//
// The /v1/advance verb exists because the reference server hosts a
// simulated room (a virtual testbed) whose time is virtual; against real
// hardware an implementation would accept it as a plain wall-clock wait.
//
// When the server is built with WithEngine, three planning endpoints
// serve queries straight off the engine's immutable snapshot, never
// touching the room or its lock:
//
//	GET /v1/plan?load=12.5[&method=8][&avoid=3,7][&safe=true][&supply=22][&margin=2.5]
//	GET /v1/consolidate?load=12.5[&mink=13]
//	GET /v1/maxload?budget=5000
//	GET /v1/stats                      cache and snapshot counters
//
// The package carries the errcontract marker: sentinel comparisons,
// unwrapped error causes, and silently dropped error returns are lint
// errors here, because the 503/422/400 mapping in writePlanError relies
// on errors.Is seeing the engine's sentinels through every wrap layer.
//
//coolopt:errcontract
package roomapi

// RoomInfo describes the room (GET /v1/room).
type RoomInfo struct {
	Machines int     `json:"machines"`
	TimeS    float64 `json:"timeS"`
}

// MachineSensors is one machine's readout within a sensor snapshot.
type MachineSensors struct {
	ID       int     `json:"id"`
	On       bool    `json:"on"`
	CPUTempC float64 `json:"cpuTempC"`
	PowerW   float64 `json:"powerW"`
}

// Sensors is the bulk snapshot (GET /v1/sensors).
type Sensors struct {
	TimeS    float64          `json:"timeS"`
	Machines []MachineSensors `json:"machines"`
	CRAC     CRACState        `json:"crac"`
}

// CRACState is the cooling unit's state (GET /v1/crac).
type CRACState struct {
	SetPointC float64 `json:"setPointC"`
	SupplyC   float64 `json:"supplyC"`
	ReturnC   float64 `json:"returnC"`
	PowerW    float64 `json:"powerW"`
}

// SetLoadRequest is the body of POST /v1/machines/{id}/load.
type SetLoadRequest struct {
	Utilization float64 `json:"utilization"`
}

// SetPowerRequest is the body of POST /v1/machines/{id}/power.
type SetPowerRequest struct {
	On bool `json:"on"`
}

// SetPointRequest is the body of POST /v1/crac/setpoint.
type SetPointRequest struct {
	SetPointC float64 `json:"setPointC"`
}

// AdvanceRequest is the body of POST /v1/advance.
type AdvanceRequest struct {
	Seconds float64 `json:"seconds"`
}

// PlanResult is a served plan (GET /v1/plan).
type PlanResult struct {
	// Epoch identifies the engine snapshot that produced the plan.
	Epoch uint64 `json:"epoch"`
	// Method is the planning scenario after defaulting (1–8, Fig. 4).
	Method int `json:"method"`
	// On lists powered-on machine IDs; Loads is indexed by machine ID.
	On    []int     `json:"on"`
	Loads []float64 `json:"loads"`
	// TAcC is the commanded supply temperature in °C.
	TAcC float64 `json:"tAcC"`
	// ShedLoad is demand (machine-units) not carried because capacity
	// ran out; Capacity is the pool capacity the shed was computed
	// against.
	ShedLoad float64 `json:"shedLoad,omitempty"`
	Capacity float64 `json:"capacity,omitempty"`
	// Degraded reports the plan was computed around failed machines;
	// Cached/Shared report cache hits and single-flight coalescing;
	// Hierarchical reports the pod-sharded planner answered.
	Degraded     bool `json:"degraded,omitempty"`
	Cached       bool `json:"cached,omitempty"`
	Shared       bool `json:"shared,omitempty"`
	Hierarchical bool `json:"hierarchical,omitempty"`
}

// ConsolidateResult is a raw consolidation answer (GET /v1/consolidate).
type ConsolidateResult struct {
	Epoch  uint64  `json:"epoch"`
	Subset []int   `json:"subset"`
	T      float64 `json:"t"`
	PowerW float64 `json:"powerW"`
}

// MaxLoadResult is a budget-query answer (GET /v1/maxload).
type MaxLoadResult struct {
	Epoch  uint64  `json:"epoch"`
	Load   float64 `json:"load"`
	Subset []int   `json:"subset"`
	T      float64 `json:"t"`
}

// LatencySummary is one endpoint's serving-latency digest inside
// GET /v1/stats. Quantiles are bucket upper bounds from a power-of-two
// microsecond histogram (≤2× resolution), reported in milliseconds.
type LatencySummary struct {
	Count uint64  `json:"count"`
	P50Ms float64 `json:"p50Ms"`
	P95Ms float64 `json:"p95Ms"`
	P99Ms float64 `json:"p99Ms"`
}

// HealthResult is the liveness answer (GET /v1/healthz).
type HealthResult struct {
	Status string `json:"status"`
}

// ReadyResult is the readiness answer (GET /v1/readyz). Reason is set
// only when not ready (snapshot install in flight, breaker open).
type ReadyResult struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
}

// ErrorResponse carries an API error.
type ErrorResponse struct {
	Error string `json:"error"`
}

// SeqHeader is the idempotency-token header mutating requests may carry.
// A client stamps each POST with a token it never reuses for a different
// command; if the server has already executed that token it replays the
// recorded response instead of executing again, so a retried POST (the
// client saw a timeout or reset but the server had applied the command)
// cannot advance the room twice. See Server for the replay window.
const SeqHeader = "Coolopt-Seq"
