// Package engine is the concurrent plan-serving layer between the frozen
// model (core.Snapshot / core.PodSnapshot) and whatever consumes plans —
// the hardened controller, the HTTP serving surface, and load-generation
// benchmarks.
//
// The design is the plant-model/optimizer split MPC controllers draw: the
// mutable simulator keeps its Clone() discipline, while planning runs
// entirely on immutable snapshots published through an RCU-style atomic
// pointer. Readers never lock; a re-profile or failure-driven model change
// swaps the pointer with Install/InstallHierarchical and in-flight queries
// simply finish against the state they started on. A single-flight,
// bounded LRU plan cache keyed by (snapshot epoch, request) coalesces
// identical concurrent queries — under serving load many clients ask for
// the same (method, load) point, and one solve can answer all of them.
//
// Each generation holds exactly one frozen model, chosen by whoever
// builds the engine: whole-room tables (core.Snapshot), served exactly,
// or a pod tree (core.PodSnapshot), which serves the paper's method #8
// through the hierarchical planner with its bounded optimality gap.
//
//coolopt:deterministic
//coolopt:errcontract
package engine

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"coolopt/internal/baseline"
	"coolopt/internal/core"
	"coolopt/internal/units"
)

// cacheCap bounds the plan cache; beyond it the least-recently-used
// entries are evicted. Plans are small (two slices of n), so this is a
// few MB even at datacenter scale.
const cacheCap = 512

// Request describes one planning query.
type Request struct {
	// Method selects the planning scenario; the zero value means the
	// paper's solution (#8, consolidation + AC control).
	Method baseline.Method
	// Load is the total demand in machine-utilization units.
	Load float64
	// Avoid lists machine IDs to plan around (detected failures). A
	// non-empty list routes the query to the degraded planner.
	Avoid []int
	// Safe asks for a CRAC-safe-mode plan: no consolidation, loads
	// shed to what AchievedSupplyC can carry.
	Safe bool
	// AchievedSupplyC is the supply temperature the room actually
	// delivers (°C), used only when Safe is set: a stuck CRAC makes the
	// commanded value meaningless.
	AchievedSupplyC float64
	// MarginC is the thermal cushion (°C) added to the supply
	// temperature when computing shed capacity.
	MarginC float64
}

// normalize defaults the method and canonicalizes the avoid list (sorted,
// deduplicated copy) so equivalent requests share a cache key.
func (r Request) normalize() Request {
	if r.Method == 0 {
		r.Method = baseline.OptimalACCons
	}
	if len(r.Avoid) > 0 {
		avoid := append([]int(nil), r.Avoid...)
		sort.Ints(avoid)
		out := avoid[:1]
		for _, i := range avoid[1:] {
			if i != out[len(out)-1] {
				out = append(out, i)
			}
		}
		r.Avoid = out
	}
	return r
}

// key is the cache / single-flight identity of a normalized request under
// one snapshot epoch. By default the load is quantized to 0.1 % of the
// pool capacity so near-identical requests coalesce onto hot cache
// entries: the first request in a bucket computes with its exact load and
// its answer serves the whole bucket (an error of at most one bucket of
// capacity). With exact keys (WithExactCacheKeys) floats are keyed by
// their bit patterns — the cache then distinguishes loads that differ in
// the last ulp, which bit-exactness tests rely on. All other float fields
// are always keyed bit-exact.
func (r Request) key(epoch uint64, machines int, exact bool) string {
	var sb strings.Builder
	if exact {
		fmt.Fprintf(&sb, "%d|%d|x%x|%t|%x|%x", epoch, int(r.Method),
			math.Float64bits(r.Load), r.Safe,
			math.Float64bits(r.AchievedSupplyC), math.Float64bits(r.MarginC))
	} else {
		fmt.Fprintf(&sb, "%d|%d|q%d|%t|%x|%x", epoch, int(r.Method),
			quantizeLoad(r.Load, machines), r.Safe,
			math.Float64bits(r.AchievedSupplyC), math.Float64bits(r.MarginC))
	}
	for _, i := range r.Avoid {
		fmt.Fprintf(&sb, "|%d", i)
	}
	return sb.String()
}

// quantizeLoad buckets a load to 0.1 % of the pool capacity (machines ×
// one utilization unit). Positive loads below half a bucket round up to
// bucket 1 rather than colliding with the all-off bucket 0.
func quantizeLoad(load float64, machines int) int64 {
	q := 0.001 * float64(machines)
	if q <= 0 {
		return int64(math.Float64bits(load)) // degenerate pool; fall back to bits
	}
	b := int64(math.Round(load / q))
	if b == 0 && load > 0 {
		b = 1
	}
	return b
}

// Response is a served plan plus the accounting the caller needs to act
// on it. The embedded Plan is shared with the cache: treat it as
// read-only.
type Response struct {
	// Plan is the control decision.
	Plan *core.Plan
	// Method is the scenario that produced it (after defaulting).
	Method baseline.Method
	// Epoch identifies the snapshot the plan was computed against.
	Epoch uint64
	// Hierarchical reports the plan came from the two-level pod planner
	// (bounded optimality gap) rather than the exact tables.
	Hierarchical bool
	// Degraded reports the plan was computed around failed machines.
	Degraded bool
	// ShedLoad is the demand (machine-units) the plan does NOT carry
	// because capacity ran out; zero when demand is fully served.
	ShedLoad float64
	// Capacity is the pool capacity the shed was computed against;
	// meaningful only when ShedLoad > 0.
	Capacity float64
	// Cached reports the response came from the plan cache; Shared that
	// it was coalesced onto a concurrent identical query.
	Cached bool
	Shared bool
}

// Stats is a point-in-time view of the engine's cache and topology,
// surfaced by pland's /v1/stats.
type Stats struct {
	// CacheHits, CacheMisses, CacheEvictions and CacheShared count plan
	// cache hits, computed misses, LRU evictions, and queries coalesced
	// onto a concurrent identical computation since the engine started.
	CacheHits      uint64 `json:"cacheHits"`
	CacheMisses    uint64 `json:"cacheMisses"`
	CacheEvictions uint64 `json:"cacheEvictions"`
	CacheShared    uint64 `json:"cacheShared"`
	// CacheEntries and CacheCapacity describe the current cache.
	CacheEntries  int `json:"cacheEntries"`
	CacheCapacity int `json:"cacheCapacity"`
	// QuantizedKeys reports load-bucketed cache keys (the default).
	QuantizedKeys bool `json:"quantizedKeys"`
	// Epoch and Machines describe the installed model; Pods and PodDepth
	// are zero without a pod tree (PodDepth is the planner tree's depth:
	// 2 = classic pod split, 3 = pods of pods). Hierarchical reports
	// whether the installed model is a pod tree.
	Epoch        uint64 `json:"epoch"`
	Machines     int    `json:"machines"`
	Pods         int    `json:"pods"`
	PodDepth     int    `json:"podDepth"`
	Hierarchical bool   `json:"hierarchical"`
	// Overload protection: InFlight is the current computation count,
	// MaxInFlight the admission bound (0 = unbounded), ShedOverload the
	// requests refused with ErrOverloaded, Breaker the breaker state
	// (closed / open / half-open), Installing whether a snapshot
	// build/install is in progress, and Ready the /v1/readyz verdict.
	InFlight     int    `json:"inFlight"`
	MaxInFlight  int    `json:"maxInFlight"`
	ShedOverload uint64 `json:"shedOverload"`
	Breaker      string `json:"breaker"`
	Installing   bool   `json:"installing"`
	Ready        bool   `json:"ready"`
	// Install accounting: Installs counts every published generation,
	// PipelinedInstalls the ones committed through the
	// PrepareInstall/CommitInstall pipeline (install.go), split into
	// PatchInstalls (incremental Snapshot.Patch builds) and
	// RebuildInstalls (from-scratch builds). StaleInstalls counts prepared
	// generations refused at commit because another install won the epoch
	// race.
	Installs          uint64 `json:"installs"`
	PipelinedInstalls uint64 `json:"pipelinedInstalls"`
	PatchInstalls     uint64 `json:"patchInstalls"`
	RebuildInstalls   uint64 `json:"rebuildInstalls"`
	StaleInstalls     uint64 `json:"staleInstalls"`
}

// state is the RCU payload: the frozen model — whole-room tables or a
// pod tree, exactly one of the two — plus the scenario planner built on
// it. All of it is read-only after construction.
type state struct {
	profile *core.Profile
	snap    *core.Snapshot    // nil on a pod engine
	pods    *core.PodSnapshot // nil on a whole-room engine
	planner *baseline.Planner
	epoch   uint64
}

// flight is one in-progress computation that concurrent identical
// requests wait on.
type flight struct {
	done chan struct{}
	resp *Response
	err  error
}

// cacheEntry is one LRU cache slot.
type cacheEntry struct {
	key  string
	resp *Response
}

// Engine serves plans off an atomically swappable snapshot.
type Engine struct {
	state atomic.Pointer[state]

	exactKeys   bool
	maxInFlight int                       // admission bound; ≤ 0 = unbounded
	computeHook func(ctx context.Context) // fault-injection / test hook

	installing atomic.Int32 // > 0 while a snapshot build/install runs

	// patchMu serializes InstallPatch callers among themselves: a patch
	// prepare costs milliseconds, so letting two re-profilers race the
	// epoch check would burn duplicate builds and can livelock the
	// bounded retry loop. Full Install/PrepareInstall callers do not
	// take it — their interference is what the retry loop is for.
	patchMu sync.Mutex

	mu       sync.Mutex
	cache    map[string]*list.Element
	lru      *list.List // front = most recently used
	inflight map[string]*flight

	hits, misses, evictions, shared uint64
	shedOverload                    uint64

	// Install accounting (see Stats); guarded by mu.
	installs          uint64
	pipelinedInstalls uint64
	patchInstalls     uint64
	rebuildInstalls   uint64
	staleInstalls     uint64

	// Request-counted breaker (overload.go); guarded by mu.
	breakerState    int
	breakerFails    int
	breakerShedLeft int
	breakerProbing  bool
}

// Option configures an Engine at construction.
type Option func(*Engine)

// WithExactCacheKeys keys the plan cache by the load's exact bit pattern
// instead of the default 0.1 %-of-capacity buckets. Bit-exactness tests
// and workloads that must never serve a neighbouring load's plan use
// this.
func WithExactCacheKeys() Option {
	return func(e *Engine) { e.exactKeys = true }
}

// New builds an engine serving the given planner's snapshot.
func New(pl *baseline.Planner, opts ...Option) *Engine {
	e := newEngine(opts)
	snap := pl.Snapshot()
	e.state.Store(&state{
		profile: pl.Profile(), snap: snap, planner: pl, epoch: snap.Epoch(),
	})
	return e
}

func newEngine(opts []Option) *Engine {
	e := &Engine{
		cache:    make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]*flight),
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// FromSnapshot builds an engine directly on a frozen snapshot,
// constructing the scenario planner over it.
func FromSnapshot(snap *core.Snapshot, opts ...Option) (*Engine, error) {
	return fromState(snap, nil, opts)
}

// FromPodSnapshot builds a pod engine: method #8, the degraded path,
// MaxLoad and Consolidate all serve through the hierarchical planner, and
// no whole-room table is ever built. This is the construction for rooms
// past the whole-room table cap.
func FromPodSnapshot(pods *core.PodSnapshot, opts ...Option) (*Engine, error) {
	return fromState(nil, pods, opts)
}

func fromState(snap *core.Snapshot, pods *core.PodSnapshot, opts []Option) (*Engine, error) {
	st, err := newState(snap, pods)
	if err != nil {
		return nil, err
	}
	e := newEngine(opts)
	e.state.Store(st)
	return e, nil
}

// newState builds the serving state over exactly one of snap and pods.
func newState(snap *core.Snapshot, pods *core.PodSnapshot) (*state, error) {
	if (snap == nil) == (pods == nil) {
		return nil, errors.New("engine: need exactly one of whole-room tables and a pod tree")
	}
	if pods != nil {
		pl, err := baseline.NewPlannerOnPods(pods)
		if err != nil {
			return nil, err
		}
		return &state{profile: pl.Profile(), pods: pods, planner: pl, epoch: pods.Epoch()}, nil
	}
	pl, err := baseline.NewPlannerOn(snap)
	if err != nil {
		return nil, err
	}
	return &state{profile: pl.Profile(), snap: snap, planner: pl, epoch: snap.Epoch()}, nil
}

// Install publishes new whole-room tables (replacing a pod tree, if one
// was installed): the scenario planner is rebuilt on them, the state
// swaps in atomically, and the plan cache is dropped. Queries already
// running finish against the state they loaded; new queries see the new
// one.
func (e *Engine) Install(snap *core.Snapshot) error {
	return e.InstallHierarchical(snap, nil)
}

// InstallHierarchical publishes exactly one of whole-room tables and a
// prebuilt pod tree as the next generation (both or neither is refused);
// the plan cache is dropped. While the install's own state build runs,
// cache misses are shed with ErrOverloaded; wrap a slow out-of-engine
// snapshot build in BeginInstall to extend that window over the
// expensive part.
func (e *Engine) InstallHierarchical(snap *core.Snapshot, pods *core.PodSnapshot) error {
	done := e.BeginInstall()
	defer done()
	st, err := newState(snap, pods)
	if err != nil {
		return err
	}
	e.publish(st)
	return nil
}

// publish swaps in a fully built state and drops the plan cache. All
// publications funnel through here (and publishIfEpoch) under e.mu, so
// concurrent installers serialize; readers stay lock-free on the atomic
// pointer. The swap is O(1) — the commit half of the install pipeline —
// so it deliberately does NOT take the BeginInstall gate: shedding exists
// to protect long in-line builds, and a prebuilt commit has no build
// window, which is what keeps readiness from flapping on patch-sized
// installs.
func (e *Engine) publish(st *state) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.publishLocked(st)
}

// publishLocked is publish with e.mu already held.
func (e *Engine) publishLocked(st *state) {
	e.state.Store(st)
	e.cache = make(map[string]*list.Element)
	e.lru.Init()
	e.installs++
}

// publishIfEpoch publishes st only if the live generation still equals
// base — the compare-and-swap the pipelined path (install.go) commits
// through, so a prepared install that lost an epoch race is refused
// instead of silently clobbering a newer generation.
func (e *Engine) publishIfEpoch(st *state, base uint64, patched bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur := e.state.Load().epoch; cur != base {
		e.staleInstalls++
		return fmt.Errorf("%w: prepared against epoch %d but epoch %d is live", ErrStaleInstall, base, cur)
	}
	e.publishLocked(st)
	e.pipelinedInstalls++
	if patched {
		e.patchInstalls++
	} else {
		e.rebuildInstalls++
	}
	return nil
}

// Snapshot returns the currently installed whole-room tables, or nil on
// a pod engine.
func (e *Engine) Snapshot() *core.Snapshot { return e.state.Load().snap }

// Pods returns the currently installed pod tree, or nil on a whole-room
// engine.
func (e *Engine) Pods() *core.PodSnapshot { return e.state.Load().pods }

// Epoch returns the installed generation.
func (e *Engine) Epoch() uint64 { return e.state.Load().epoch }

// Planner returns the scenario planner over the installed state.
func (e *Engine) Planner() *baseline.Planner { return e.state.Load().planner }

// Stats returns a point-in-time view of the cache counters and the
// installed topology.
func (e *Engine) Stats() Stats {
	st := e.state.Load()
	s := Stats{
		CacheCapacity: cacheCap,
		QuantizedKeys: !e.exactKeys,
		Epoch:         st.epoch,
		Machines:      st.profile.Size(),
		Hierarchical:  st.pods != nil,
		MaxInFlight:   e.maxInFlight,
		Installing:    e.installing.Load() > 0,
	}
	if st.pods != nil {
		s.Pods = st.pods.Pods()
		s.PodDepth = st.pods.Depth()
	}
	e.mu.Lock()
	s.CacheHits, s.CacheMisses = e.hits, e.misses
	s.CacheEvictions, s.CacheShared = e.evictions, e.shared
	s.CacheEntries = len(e.cache)
	s.InFlight = len(e.inflight)
	s.ShedOverload = e.shedOverload
	s.Installs, s.PipelinedInstalls = e.installs, e.pipelinedInstalls
	s.PatchInstalls, s.RebuildInstalls = e.patchInstalls, e.rebuildInstalls
	s.StaleInstalls = e.staleInstalls
	s.Breaker = breakerName(e.breakerState)
	s.Ready = !s.Installing && e.breakerState == brClosed
	e.mu.Unlock()
	return s
}

// Plan answers one planning query. It is safe for any number of
// concurrent callers; identical queries are coalesced and answers are
// cached until the snapshot changes.
func (e *Engine) Plan(ctx context.Context, req Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if req.Load < 0 {
		return nil, fmt.Errorf("engine: negative load %v", req.Load)
	}
	st := e.state.Load()
	req = req.normalize()
	if len(req.Avoid) > 0 {
		n := st.profile.Size()
		if bad := req.Avoid[len(req.Avoid)-1]; bad >= n {
			return nil, fmt.Errorf("%w: machine %d outside [0, %d)", ErrBadAvoid, bad, n)
		}
		if bad := req.Avoid[0]; bad < 0 {
			return nil, fmt.Errorf("%w: machine %d outside [0, %d)", ErrBadAvoid, bad, n)
		}
	}
	key := req.key(st.epoch, st.profile.Size(), e.exactKeys)

	e.mu.Lock()
	if el, ok := e.cache[key]; ok {
		e.lru.MoveToFront(el)
		e.hits++
		e.mu.Unlock()
		r := *el.Value.(*cacheEntry).resp
		r.Cached = true
		return &r, nil
	}
	if f, ok := e.inflight[key]; ok {
		e.shared++
		e.mu.Unlock()
		select {
		case <-f.done:
			if f.err != nil {
				return nil, f.err
			}
			r := *f.resp
			r.Shared = true
			return &r, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err := e.admitLocked(); err != nil {
		e.mu.Unlock()
		return nil, err
	}
	f := &flight{done: make(chan struct{})}
	e.inflight[key] = f
	e.misses++
	e.mu.Unlock()

	resp, err := e.compute(ctx, st, req)
	f.resp, f.err = resp, err
	close(f.done)

	e.mu.Lock()
	delete(e.inflight, key)
	e.noteComputeLocked(err)
	if err == nil {
		e.store(key, resp)
	}
	e.mu.Unlock()

	if err != nil {
		return nil, err
	}
	r := *resp
	return &r, nil
}

// store inserts into the bounded LRU cache; the caller holds e.mu.
func (e *Engine) store(key string, resp *Response) {
	if el, ok := e.cache[key]; ok {
		e.lru.MoveToFront(el)
		return
	}
	for len(e.cache) >= cacheCap {
		oldest := e.lru.Back()
		if oldest == nil {
			break
		}
		e.lru.Remove(oldest)
		delete(e.cache, oldest.Value.(*cacheEntry).key)
		e.evictions++
	}
	e.cache[key] = e.lru.PushFront(&cacheEntry{key: key, resp: resp})
}

// compute solves one normalized request against one state. The context
// carries the request deadline: an expired one fails the request before
// any planning, and the fault-injection hook (if any) may block on it.
func (e *Engine) compute(ctx context.Context, st *state, req Request) (*Response, error) {
	if e.computeHook != nil {
		e.computeHook(ctx)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp := &Response{Method: req.Method, Epoch: st.epoch}
	switch {
	case req.Safe:
		if err := e.safePlan(st, req, resp); err != nil {
			return nil, err
		}
	case len(req.Avoid) > 0:
		if err := e.degradedPlan(st, req, resp); err != nil {
			return nil, err
		}
	case req.Method == baseline.OptimalACCons && req.Load > 0 && st.pods != nil:
		plan, err := st.pods.Plan(req.Load)
		if err != nil {
			return nil, err
		}
		resp.Plan = plan
		resp.Hierarchical = true
	default:
		plan, err := st.planner.Plan(req.Method, req.Load)
		if err != nil {
			return nil, err
		}
		resp.Plan = plan
	}
	return resp, nil
}

// survivors returns 0..n−1 minus the (sorted) avoid list.
func survivors(n int, avoid []int) []int {
	pool := make([]int, 0, n)
	next := 0
	for i := 0; i < n; i++ {
		for next < len(avoid) && avoid[next] < i {
			next++
		}
		if next < len(avoid) && avoid[next] == i {
			continue
		}
		pool = append(pool, i)
	}
	return pool
}

// degradedPlan plans around the avoid set with PlanAvoiding on whichever
// model the state holds: the one planning body runs over the survivors.
// When even the full surviving set cannot carry the demand the excess is
// shed to the pool's Eq. 20 capacity at the coldest supply (with the
// thermal cushion) and the plan is retried. Avoiding every machine is
// an infeasibility no shed can help.
func (e *Engine) degradedPlan(st *state, req Request, resp *Response) error {
	resp.Degraded = true
	var planAvoiding func(float64, []int) (*core.Plan, error)
	if st.pods != nil {
		resp.Hierarchical = true
		planAvoiding = st.pods.PlanAvoiding
	} else {
		planAvoiding = st.snap.PlanAvoiding
	}
	plan, err := planAvoiding(req.Load, req.Avoid)
	if err == nil {
		resp.Plan = plan
		return nil
	}
	if !errors.Is(err, core.ErrInfeasible) {
		return err
	}
	p := st.profile
	capacity := p.CapacityAt(survivors(p.Size(), req.Avoid), units.Celsius(p.TAcMinC+req.MarginC))
	if capacity <= 0 || capacity >= req.Load {
		return err // infeasibility was not demand-driven; shedding cannot help
	}
	plan, shedErr := planAvoiding(capacity, req.Avoid)
	if shedErr != nil {
		return fmt.Errorf("engine: no feasible degraded plan even after shedding to %.2f units: %w", capacity, shedErr)
	}
	resp.Plan = plan
	resp.ShedLoad = req.Load - capacity
	resp.Capacity = capacity
	return nil
}

// safePlan plans for a CRAC that no longer answers commands: no
// consolidation (concentration is what needs cold air), loads sized to
// what the achieved supply temperature can carry. Unlike an even spread,
// the shed is slack-weighted: each machine gets load in proportion to its
// own Eq. 20 cap at the achieved supply, so thermally tight machines
// (high α_i/β_i, low K_i) are unloaded first and no machine is pushed
// past its cap.
func (e *Engine) safePlan(st *state, req Request, resp *Response) error {
	p := st.profile
	pool := survivors(p.Size(), req.Avoid)
	if len(pool) == 0 {
		return errors.New("engine: no surviving machines")
	}
	supply := units.Celsius(req.AchievedSupplyC + req.MarginC)
	caps := make([]float64, len(pool))
	var capacity float64
	for j, i := range pool {
		caps[j] = p.LoadCap(i, supply)
		capacity += caps[j]
	}
	carried := req.Load
	if carried > capacity {
		carried = capacity
		resp.ShedLoad = req.Load - capacity
		resp.Capacity = capacity
	}
	loads := make([]float64, p.Size())
	if capacity > 0 {
		scale := carried / capacity
		for j, i := range pool {
			loads[i] = caps[j] * scale
		}
	}
	resp.Plan = &core.Plan{On: pool, Loads: loads, TAcC: units.Celsius(p.TAcMinC)}
	return nil
}

// MaxLoad answers the paper's dual budget question maxL(A, P_b) off the
// installed state: the maximum serviceable load under a power budget and
// the machine set achieving it. A pod engine answers with the composed
// pod query and its bounded gap.
func (e *Engine) MaxLoad(budgetW float64) (core.MaxLoadResult, error) {
	st := e.state.Load()
	if st.pods != nil {
		return st.pods.MaxLoad(budgetW)
	}
	return st.snap.Tables().MaxLoad(budgetW)
}

// Consolidate answers the consolidation query directly: the best subset
// of at least minK machines for the given load (Eq. 23 scoring), served
// hierarchically on a pod engine.
func (e *Engine) Consolidate(load float64, minK int) (core.Selection, error) {
	st := e.state.Load()
	if st.pods != nil {
		return st.pods.Consolidate(load, minK)
	}
	return st.snap.Tables().QueryExact(load, minK)
}
