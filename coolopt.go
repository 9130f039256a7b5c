// Package coolopt is a Go implementation of "Joint Optimization of
// Computing and Cooling Energy: Analytic Model and A Machine Room Case
// Study" (Li, Le, Pham, Heo, Abdelzaher — ICDCS 2012).
//
// The library has three layers:
//
//   - The paper's contribution: a closed-form energy-optimal load
//     distribution across a machine rack jointly with the CRAC supply
//     temperature (Profile.Solve, Eqs. 21–22), and a guaranteed-optimal
//     consolidation algorithm built on a 1-D particle system
//     (Preprocess/QueryExact, §III-B Algorithms 1–2). See Optimizer for
//     the practical planner combining both.
//
//   - A machine-room simulator standing in for the paper's 20-machine
//     testbed: per-server lumped-RC thermal models, a CRAC with an
//     exhaust-set-point control loop, rack air paths with hot-aisle
//     recirculation, and noisy sensors. See NewSystem.
//
//   - The paper's methodology around them: the profiling protocol that
//     fits every model coefficient from (simulated) measurements, the
//     baseline policies (even and cool-job/bottom-up allocation), the
//     eight-scenario evaluation matrix of Fig. 4, and a scenario runner
//     that reproduces every figure of the evaluation section.
//
// Quick start:
//
//	sys, err := coolopt.NewSystem()            // build + profile the room
//	m, err := sys.Evaluate(coolopt.OptimalACCons, 0.5)  // run scenario #8 at 50 % load
//	fmt.Println(m.TotalW)
//
// All temperatures are °C, powers are Watts, and load is expressed in
// machine-utilization units (one unit = one fully busy machine) or, at
// the System API boundary, as a fraction of total cluster capacity.
package coolopt

import (
	"coolopt/internal/baseline"
	"coolopt/internal/core"
	"coolopt/internal/engine"
	"coolopt/internal/profiling"
)

// Re-exported model and planner types. The concrete implementations live
// in internal packages; these aliases are the supported public surface.
type (
	// Profile holds the fitted model of a machine room (paper Eqs.
	// 8–10) and implements the closed-form solver.
	Profile = core.Profile
	// MachineProfile holds one machine's thermal coefficients (Eq. 8).
	MachineProfile = core.MachineProfile
	// Plan is an executable control decision: on set, load split,
	// supply temperature.
	Plan = core.Plan
	// Optimizer is the practical planner (consolidation + closed form).
	Optimizer = core.Optimizer
	// Pair and Reduced are the consolidation abstraction of §III-B.
	Pair = core.Pair
	// Reduced is the reduced consolidation instance (a_i, b_i, w2, ρ).
	Reduced = core.Reduced
	// Selection is a consolidation outcome.
	Selection = core.Selection
	// Preprocessed is Algorithm 1's output in its compressed kinetic
	// form: O(n²) memory, queries in O(n·lg² n).
	Preprocessed = core.Preprocessed
	// DensePreprocessed is the paper-literal dense form of Algorithm 1
	// (O(n³) tables), kept as the reference implementation.
	DensePreprocessed = core.DensePreprocessed
	// PreprocessOption configures Preprocess / PreprocessDense /
	// NewOptimizer (machine cap, worker pool).
	PreprocessOption = core.PreprocessOption
	// HeteroProfile and HeteroMachine extend the closed form to
	// mixed-hardware rooms where every machine has its own power model
	// (the extension the paper names as future work).
	HeteroProfile = core.HeteroProfile
	// HeteroMachine is one machine of a mixed-hardware room.
	HeteroMachine = core.HeteroMachine
	// Snapshot is an immutable planning model: per-machine thermal
	// constants (Eq. 19) plus the consolidation tables, safe to share
	// across goroutines without Clone.
	Snapshot = core.Snapshot
	// PodSnapshot is the pod-sharded hierarchical planning model: the
	// room partitioned into pods with per-pod consolidation tables and a
	// top-level allocator, for rooms past the whole-room table cap.
	PodSnapshot = core.PodSnapshot
	// PodOption configures NewPodSnapshot (pod size/count, tree depth,
	// build workers).
	PodOption = core.PodOption
	// Unit is one node of the recursive planner tree a PodSnapshot (or,
	// degenerately, a Snapshot) plans through: leaves own kinetic tables
	// over contiguous machine ranges, interior nodes water-fill load over
	// their children's Eq. 21–22 aggregates. Read-only.
	Unit = core.Unit
	// MaxLoadResult answers the dual budget question maxL(A, P_b).
	MaxLoadResult = core.MaxLoadResult
	// Method identifies one of the eight evaluation scenarios (Fig. 4).
	Method = baseline.Method
	// Planner produces plans for all eight scenarios.
	Planner = baseline.Planner
	// Engine is the concurrent plan-serving layer: an RCU-style
	// snapshot holder with a single-flight plan cache.
	Engine = engine.Engine
	// PlanRequest and PlanResponse are Engine.Plan's wire types.
	PlanRequest = engine.Request
	// PlanResponse is a served plan plus shed/degradation accounting.
	PlanResponse = engine.Response
	// EngineStats is the engine's point-in-time cache and topology
	// counters (the /v1/stats wire form).
	EngineStats = engine.Stats
	// EngineOption configures engine construction (WithExactCacheKeys).
	EngineOption = engine.Option
	// MachineDelta is one machine's re-fitted Eq. 8 coefficients, the
	// unit of incremental snapshot maintenance (Snapshot.Patch,
	// Engine.InstallPatch).
	MachineDelta = core.MachineDelta
	// PreparedInstall is a fully built serving generation awaiting its
	// O(1) epoch-checked commit (Engine.PrepareInstall / PreparePatch).
	PreparedInstall = engine.PreparedInstall
	// ProfilingResult is a completed profiling run (fitted profile,
	// set-point calibration, and fit reports for Figs. 2–3).
	ProfilingResult = profiling.Result
	// FitReport compares a fitted model against the measurements that
	// produced it.
	FitReport = profiling.FitReport
	// SetPointCalibration maps desired supply temperatures to CRAC set
	// points (§IV-B).
	SetPointCalibration = profiling.SetPointCalibration
)

// The eight evaluation scenarios, numbered as in the paper's Fig. 4.
const (
	EvenNoACNoCons     = baseline.EvenNoACNoCons     // #1
	BottomUpNoACNoCons = baseline.BottomUpNoACNoCons // #2
	BottomUpNoACCons   = baseline.BottomUpNoACCons   // #3
	EvenACNoCons       = baseline.EvenACNoCons       // #4
	BottomUpACNoCons   = baseline.BottomUpACNoCons   // #5
	OptimalACNoCons    = baseline.OptimalACNoCons    // #6
	BottomUpACCons     = baseline.BottomUpACCons     // #7
	OptimalACCons      = baseline.OptimalACCons      // #8
)

// AllMethods lists the scenarios in paper order.
var AllMethods = baseline.AllMethods

// HierThreshold is the room size at and above which a pod tree beats the
// whole-room tables for serving, from the measured pod-sizing calibration
// curve (regenerated by `paperbench -podsize-sweep`).
var HierThreshold = core.DefaultCalibration().HierThreshold

// ErrInfeasible is returned when no plan can satisfy the constraints.
var ErrInfeasible = core.ErrInfeasible

// Typed serving errors from the plan engine; compare with errors.Is.
var (
	// ErrPlanOverloaded: the engine refused to start a computation
	// (in-flight bound hit, install in progress, or breaker open).
	ErrPlanOverloaded = engine.ErrOverloaded
	// ErrPlanBadAvoid: the avoid list names a machine outside the room.
	ErrPlanBadAvoid = engine.ErrBadAvoid
	// ErrBadDelta: a drift batch named a machine outside the room, listed
	// one twice, or carried coefficients that fail profile validation.
	ErrBadDelta = core.ErrBadDelta
	// ErrStaleInstall: a prepared install was refused at commit because
	// another install published first; re-prepare and commit again
	// (Engine.InstallPatch does so automatically).
	ErrStaleInstall = engine.ErrStaleInstall
)

// NewOptimizer builds the practical planner for a profile; see
// core.NewOptimizer.
func NewOptimizer(p *Profile, opts ...PreprocessOption) (*Optimizer, error) {
	return core.NewOptimizer(p, opts...)
}

// NewPlanner builds the eight-scenario planner for a profile.
func NewPlanner(p *Profile) (*Planner, error) { return baseline.NewPlanner(p) }

// NewSnapshot freezes a profile into an immutable planning model; see
// core.NewSnapshot.
func NewSnapshot(p *Profile, epoch uint64, opts ...PreprocessOption) (*Snapshot, error) {
	return core.NewSnapshot(p, epoch, opts...)
}

// NewEngine builds a plan-serving engine over a planner's snapshot.
func NewEngine(pl *Planner) *Engine { return engine.New(pl) }

// NewEngineFromSnapshot builds a plan-serving engine directly on a
// frozen snapshot.
func NewEngineFromSnapshot(snap *Snapshot) (*Engine, error) {
	return engine.FromSnapshot(snap)
}

// NewEngineFromPodSnapshot builds a plan-serving engine on a pod tree.
func NewEngineFromPodSnapshot(pods *PodSnapshot, opts ...EngineOption) (*Engine, error) {
	return engine.FromPodSnapshot(pods, opts...)
}

// NewPodSnapshot partitions a room into pods and builds the per-pod
// consolidation tables in parallel; see core.NewPodSnapshot.
func NewPodSnapshot(p *Profile, epoch uint64, opts ...PodOption) (*PodSnapshot, error) {
	return core.NewPodSnapshot(p, epoch, opts...)
}

// WithExactCacheKeys keys the engine's plan cache by exact load bits
// instead of 0.1 %-of-capacity buckets.
func WithExactCacheKeys() EngineOption { return engine.WithExactCacheKeys() }

// WithMaxInFlight bounds concurrent plan computations; excess cache
// misses are shed with ErrPlanOverloaded instead of queued.
func WithMaxInFlight(k int) EngineOption { return engine.WithMaxInFlight(k) }

// Preprocess runs consolidation Algorithm 1 on a reduced instance in its
// compressed kinetic form (O(n² lg n) time, O(n²) memory, default cap
// core.DefaultMaxMachines machines).
func Preprocess(r Reduced, opts ...PreprocessOption) (*Preprocessed, error) {
	return core.Preprocess(r, opts...)
}

// PreprocessDense runs the dense paper-literal form of Algorithm 1
// (O(n³) tables, default cap core.DenseMaxMachines machines); kept as a
// reference for cross-checking and benchmarking.
func PreprocessDense(r Reduced, opts ...PreprocessOption) (*DensePreprocessed, error) {
	return core.PreprocessDense(r, opts...)
}

// WithMaxMachines overrides the Preprocess machine-count cap.
func WithMaxMachines(n int) PreprocessOption { return core.WithMaxMachines(n) }

// WithPreprocessWorkers bounds the preprocessing worker pool.
func WithPreprocessWorkers(w int) PreprocessOption { return core.WithPreprocessWorkers(w) }

// WithPatchSupport retains the crossing list Preprocess normally
// discards, enabling incremental Snapshot.Patch on the result (≈16 bytes
// per pairwise crossing of extra memory).
func WithPatchSupport() PreprocessOption { return core.WithPatchSupport() }

// WithPodSize sets the target machines per pod (default
// core.DefaultPodSize).
func WithPodSize(n int) PodOption { return core.WithPodSize(n) }

// WithPodCount sets the pod count directly instead of a target size.
func WithPodCount(p int) PodOption { return core.WithPodCount(p) }

// WithPodDepth sets the planner-tree depth: 2 is the classic pod split,
// 3 groups pods into ≈√p pods of pods for fleet-scale rooms. Values ≤ 0
// pick the calibrated depth for the room size.
func WithPodDepth(d int) PodOption { return core.WithPodDepth(d) }
