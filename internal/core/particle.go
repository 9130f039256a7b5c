package core

import (
	"coolopt/internal/mathx"
	"fmt"
	"math"
	"slices"
	"sort"
)

// This file implements the paper's particle-system consolidation machinery
// (§III-B, Algorithms 1–2) in its datacenter-scale form.
//
// Machine i is a particle on a line with initial coordinate a_i = K_i and
// speed −b_i = −α_i/β_i, so x_i(t) = a_i − b_i·t. A subset S of size k can
// serve load L within the power budget corresponding to time t iff
// Σ_S x_i(t) ≥ L (Eq. 26), and the best such subset is always the k
// front-most particles. The total order of particles changes only at the
// O(n²) pairwise passing events.
//
// The paper's Algorithm 1 materializes the order and its prefix sums after
// every event — an O(n³) table built in O(n³ lg n) time, which caps rooms
// at a few hundred machines. This implementation keeps the same query
// semantics on two ideas (see kinetic.go for the construction):
//
//  1. Kinetic order maintenance. Between events only the particles that
//     actually pass each other change relative order, so the sweep repairs
//     the order locally at each event (an O(1)-sized sort per ordinary
//     event, widened into a block sort for ties and simultaneous
//     crossings) instead of re-sorting all n particles. The event list
//     itself is radix-sorted on the bits of its times, so a build is
//     ~O(n²) in total.
//
//  2. Compressed tables. For each subset size k, the maximum k-subset
//     coordinate sum S_k(t) is piecewise linear in t and only changes
//     piece when a crossing straddles rank k, which happens O(n²) times
//     in total across ALL k. Storing those pieces — instead of per-event
//     orders and prefix sums — shrinks the structure from O(n³) to O(n²)
//     while still answering every query of the dense form.
//
// Faithfulness note: the paper maintains the order incrementally with
// curOrder.swap(p, q) per event, which mishandles exact ties and
// simultaneous crossings. Like the dense reference (dense.go), the sweep
// samples each inter-event interval at its midpoint and repairs the order
// with a local sort there, which is robust to both. Algorithm 2's global
// binary search over allStatus sorted by Lmax is implemented in Query
// without materializing allStatus; see QueryExact for the robust variant
// (DESIGN.md §5.1).

// DefaultMaxMachines is the default Preprocess size cap. The event grid
// and the segment tables are O(n²): at the cap they occupy a few hundred
// megabytes. Raise it explicitly with WithMaxMachines when the memory
// budget allows.
const DefaultMaxMachines = 4096

// DenseMaxMachines is the default size cap of the dense reference
// implementation (PreprocessDense), whose tables are O(n³).
const DenseMaxMachines = 512

// preprocessConfig collects the tunables of both Preprocess variants.
type preprocessConfig struct {
	maxMachines int  // 0 = entry point's default
	workers     int  // 0 = runtime.GOMAXPROCS(0)
	retain      bool // keep the sorted crossing list for incremental patching
}

// PreprocessOption configures Preprocess and PreprocessDense.
type PreprocessOption func(*preprocessConfig)

// WithMaxMachines overrides the machine-count cap. Values ≤ 0 keep the
// entry point's default (DefaultMaxMachines for Preprocess,
// DenseMaxMachines for PreprocessDense).
func WithMaxMachines(n int) PreprocessOption {
	return func(cfg *preprocessConfig) { cfg.maxMachines = n }
}

// WithPreprocessWorkers bounds the worker pool used for event generation
// and the event-block sweep. Values ≤ 0 use runtime.GOMAXPROCS(0). The
// result is independent of the worker count for instances whose
// coordinate sums are exact in float64; in general, worker-count changes
// can shift results by ulps (the chunk boundaries re-accumulate prefix
// sums in a different order).
func WithPreprocessWorkers(w int) PreprocessOption {
	return func(cfg *preprocessConfig) { cfg.workers = w }
}

// WithPatchSupport keeps the time-sorted pairwise crossing list alive
// after the sweep, enabling Snapshot.Patch to splice a drifted machine's
// crossings instead of regenerating and re-sorting all O(n²) of them.
// Costs 16 bytes per crossing (~n²/2 of them) of extra residency; tables
// are bit-identical with or without it.
func WithPatchSupport() PreprocessOption {
	return func(cfg *preprocessConfig) { cfg.retain = true }
}

// Status is one row of Algorithm 1's allStatus table: at event time T,
// powering the K front-most particles supports at most LMax load.
type Status struct {
	T    float64
	K    int
	LMax float64
}

// Preprocessed is the compressed output of Algorithm 1, ready to answer
// consolidation queries. For each subset size k it stores the pieces of
// the piecewise-linear function S_k(t) = segA − segB·t (the maximum
// k-subset coordinate sum), keyed by the first event interval each piece
// covers. Orders are reconstructed on demand.
type Preprocessed struct {
	reduced Reduced
	// events holds the sorted distinct event times, starting with 0.
	events []float64
	// Piece arena, grouped by k: pieces of S_k occupy
	// segEvent/segA/segB[segOff[k-1]:segOff[k]], ordered by start event.
	segOff   []int
	segEvent []int32
	segA     []float64
	segB     []float64
	// crossings is the time-sorted crossing list the sweep consumed,
	// retained only under WithPatchSupport so patch (patch.go) can reuse
	// the undrifted pairs' entries; nil otherwise. Never read by queries.
	crossings []crossing
}

// Preprocess runs the kinetic form of Algorithm 1 on the reduced
// instance. Time is ~O(n²) and the retained tables are O(n²); n is
// capped at DefaultMaxMachines by default (see WithMaxMachines).
func Preprocess(r Reduced, opts ...PreprocessOption) (*Preprocessed, error) {
	cfg := preprocessConfig{}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.maxMachines <= 0 {
		cfg.maxMachines = DefaultMaxMachines
	}
	n := len(r.Pairs)
	if n == 0 {
		return nil, fmt.Errorf("core: no pairs")
	}
	if n > cfg.maxMachines {
		return nil, fmt.Errorf("core: preprocess capped at %d machines, got %d (the event grid and segment tables are O(n²) in machines; raise the cap with WithMaxMachines if the memory budget allows)",
			cfg.maxMachines, n)
	}
	for i, p := range r.Pairs {
		if p.B <= 0 {
			return nil, fmt.Errorf("core: pair %d has non-positive speed b = %v", i, p.B)
		}
	}

	events, crossings, bucketEnd := collectEvents(r.Pairs, cfg.workers)
	pp := &Preprocessed{reduced: r, events: events}
	pp.buildSegments(crossings, bucketEnd, cfg.workers)
	if cfg.retain {
		pp.crossings = crossings
	}
	return pp, nil
}

// orderAt returns machine IDs sorted by decreasing coordinate x_i(t),
// breaking coordinate ties by increasing speed b (the particle that will
// lead immediately after t) and then by ID for determinism.
func orderAt(pairs []Pair, t float64) []int {
	order := allIDs(len(pairs))
	sortFront(pairs, order, t)
	return order
}

// sortFront sorts ids front-most first at time t under particleLess's
// strict total order, computing each coordinate once, not per comparison.
func sortFront(pairs []Pair, ids []int, t float64) {
	ps := make([]particle, len(ids))
	for i, id := range ids {
		ps[i] = particleAt(pairs, id, t)
	}
	slices.SortFunc(ps, func(p, q particle) int {
		if p.ahead(q) {
			return -1
		}
		return 1
	})
	for i, p := range ps {
		ids[i] = p.id
	}
}

// particleLess is the strict total order of particles at time t: by
// decreasing coordinate, ties by increasing speed b, then by ID.
func particleLess(pairs []Pair, i, j int, t float64) bool {
	return particleAt(pairs, i, t).ahead(particleAt(pairs, j, t))
}

// particle is machine id's coordinate x and speed b at one time.
type particle struct {
	x, b float64
	id   int
}

func particleAt(pairs []Pair, i int, t float64) particle {
	return particle{x: pairs[i].A - pairs[i].B*t, b: pairs[i].B, id: i}
}

// ahead is particleLess's order: p leads q.
func (p particle) ahead(q particle) bool {
	if !mathx.Same(p.x, q.x) {
		return p.x > q.x
	}
	if !mathx.Same(p.b, q.b) {
		return p.b < q.b
	}
	return p.id < q.id
}

// sampleTimeOf returns the numerically robust sample point of the order
// on the interval [events[e], events[e+1]): its midpoint (or +0.5 past
// the last event). Sampling exactly at an event time would tie the
// crossing particles' coordinates.
func sampleTimeOf(events []float64, e int) float64 {
	t := events[e]
	if e+1 < len(events) {
		return (t + events[e+1]) / 2
	}
	return t + 0.5
}

func (pp *Preprocessed) sampleTime(e int) float64 { return sampleTimeOf(pp.events, e) }

// Events returns the number of distinct event times (including t = 0).
func (pp *Preprocessed) Events() int { return len(pp.events) }

// StatusCount returns the size of Algorithm 1's allStatus table — the
// number of (event, k) combinations the queries range over. The
// compressed representation answers the same queries without
// materializing the table.
func (pp *Preprocessed) StatusCount() int { return len(pp.events) * len(pp.reduced.Pairs) }

// Pieces returns the number of stored linear pieces across all subset
// sizes — the O(n²) quantity that replaces the dense O(n³) tables.
func (pp *Preprocessed) Pieces() int { return len(pp.segEvent) }

// TableBytes returns the resident size of the retained tables (events
// and segment arena) in bytes — the memory the structure keeps alive
// after preprocessing, excluding fixed struct overhead.
func (pp *Preprocessed) TableBytes() int {
	return len(pp.events)*8 + len(pp.segOff)*8 + len(pp.segEvent)*4 +
		len(pp.segA)*8 + len(pp.segB)*8
}

// PatchSupported reports whether the sorted crossing list was retained
// (WithPatchSupport), i.e. whether patch can splice instead of rebuilding.
func (pp *Preprocessed) PatchSupported() bool { return pp.crossings != nil }

// RetainedCrossingBytes returns the extra residency of the retained
// crossing list (zero without WithPatchSupport). Reported separately from
// TableBytes so the committed bench trajectories keep their meaning.
func (pp *Preprocessed) RetainedCrossingBytes() int { return len(pp.crossings) * 16 }

// OrderAtEvent reconstructs the machine IDs by decreasing coordinate on
// the event interval [events[e], events[e+1]) — row e of the dense
// Algorithm 1 table, computed on demand in O(n lg n).
func (pp *Preprocessed) OrderAtEvent(e int) ([]int, error) {
	if e < 0 || e >= len(pp.events) {
		return nil, fmt.Errorf("core: event %d outside [0, %d)", e, len(pp.events))
	}
	return orderAt(pp.reduced.Pairs, pp.sampleTime(e)), nil
}

// budgetLine is the load a power budget allows at particle time t along
// the budget boundary, L(t) = (c + ρ·t)/w1 with c = P_b − k·w2 − f·T_SP
// (see maxload.go). It rises in t while S_k falls.
type budgetLine struct{ c, rho, w1 float64 }

func (bl *budgetLine) loadAt(t float64) float64 { return (bl.c + bl.rho*t) / bl.w1 }

// lastCovered finds the last event e at which S_k still covers the
// demand and the arena index j of the piece covering it: S_k ≥ load, or
// S_k − L(t) ≥ 0 along a budget line when bl is non-nil. ok is false
// when event 0 fails already. Both forms are true on a prefix of the
// event grid because S_k falls and L(t) rises.
//
// The search runs over pieces first: one binary search over k's own
// pieces, each probed at its start event, finds the last piece that
// still covers, and a second runs over that piece's events alone with
// its fixed (a, b) — lg P_k + lg(events in one piece) probes, with no
// piece lookup per probe. Every probe evaluates S_k at an event with the
// piece covering that event (piece start events are unique per k), so
// wherever the covered events form a prefix the answer is a plain
// bisection of the event grid's, bit for bit (lookup_test.go).
func (pp *Preprocessed) lastCovered(k int, load float64, bl *budgetLine) (j, e int, ok bool) {
	covers := func(v, t float64) bool {
		if bl != nil {
			return v-bl.loadAt(t) >= 0
		}
		return v >= load
	}
	lo, end := pp.segOff[k-1], pp.segOff[k]
	// Event 0 is tested for failure, not for cover: a NaN demand does
	// neither, so it searches on and the callers' arithmetic carries
	// the NaN into their results.
	v, t := pp.segA[lo]-pp.events[0]*pp.segB[lo], pp.events[0]
	if bl != nil && v-bl.loadAt(t) < 0 || bl == nil && v < load {
		return lo, 0, false
	}
	hi := end - 1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		t := pp.events[pp.segEvent[mid]]
		if covers(pp.segA[mid]-t*pp.segB[mid], t) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	j = lo
	a, b := pp.segA[j], pp.segB[j]
	lo, hi = int(pp.segEvent[j]), len(pp.events)-1
	if j+1 < end {
		hi = int(pp.segEvent[j+1]) - 1
	}
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		t := pp.events[mid]
		if covers(a-t*b, t) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return j, lo, true
}

// frontSet returns the k front-most machine IDs on event interval e in
// ascending ID order: a quickselect of the top k under particleLess's
// order at the interval's sample time, read back through an ID mask, so
// O(n) expected with no sort; a pod leaf pays it once per plan. The
// order is strict and total, so the set is exactly frontSetRebuild's
// (the property tests enforce it). Buffers are call-local, so queries
// never write to the Preprocessed and are safe for concurrent use.
func (pp *Preprocessed) frontSet(e, k int) []int {
	pairs := pp.reduced.Pairs
	t := pp.sampleTime(e)
	ps := make([]particle, len(pairs))
	for i := range ps {
		ps[i] = particleAt(pairs, i, t)
	}
	selectFront(ps, k)
	on := make([]bool, len(pairs))
	for _, p := range ps[:k] {
		on[p.id] = true
	}
	return unionFromMask(on, k)
}

// selectFront reorders ps so that its first k entries are the k front-most
// particles, in no particular order: a Lomuto quickselect pivoting on the
// middle of the range.
func selectFront(ps []particle, k int) {
	lo, hi := 0, len(ps)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		ps[mid], ps[hi] = ps[hi], ps[mid]
		pivot, store := ps[hi], lo
		for i := lo; i < hi; i++ {
			if ps[i].ahead(pivot) {
				ps[store], ps[i] = ps[i], ps[store]
				store++
			}
		}
		ps[store], ps[hi] = ps[hi], ps[store]
		// The pivot now holds rank store: the first store entries lead it.
		switch {
		case store < k-1:
			lo = store + 1
		case store > k:
			hi = store - 1
		default:
			return
		}
	}
}

// frontSetRebuild is the reference implementation of frontSet: re-sort
// every particle at the interval's sample time and take the k front-most.
// Kept as the ground truth the selection is property-tested against.
func (pp *Preprocessed) frontSetRebuild(e, k int) []int {
	order := orderAt(pp.reduced.Pairs, pp.sampleTime(e))
	subset := order[:k:k]
	sort.Ints(subset)
	return subset
}

// Query is Algorithm 2: find the status row with the smallest LMax
// exceeding the load and return the corresponding k front-most machines
// of the order at that row's event time. Without the materialized
// allStatus table the search runs per subset size: S_k over event times
// is non-increasing, so the smallest exceeding value for each k sits at
// the last event time where S_k still exceeds the load; the global answer
// is the minimum across k (ties to the smaller k, matching the dense
// reference's deterministic sort). O(n lg² n) per query.
//
// The paper argues this lookup returns the power-optimal on-set. The
// monotonicity it relies on holds within a fixed k but not always across
// k; QueryExact is the robust variant. Tests quantify the gap.
func (pp *Preprocessed) Query(load float64) (Selection, error) {
	n := len(pp.reduced.Pairs)
	bestVal := math.Inf(1)
	bestK, bestE := 0, 0
	// S_k > load is S_k ≥ the next float up, for every load (a NaN
	// stays NaN and compares the same way in both forms).
	above := math.Nextafter(load, math.Inf(1))
	for k := 1; k <= n; k++ {
		j, e, ok := pp.lastCovered(k, above, nil)
		if !ok {
			continue // S_k never exceeds the load (non-increasing over events)
		}
		if v := pp.segA[j] - pp.events[e]*pp.segB[j]; v < bestVal {
			bestVal, bestK, bestE = v, k, e
		}
	}
	if math.IsInf(bestVal, 1) {
		return Selection{}, fmt.Errorf("%w: load %v exceeds every status", ErrInfeasible, load)
	}
	subset := pp.frontSet(bestE, bestK)
	t, err := pp.reduced.TValue(subset, load)
	if err != nil {
		return Selection{}, err
	}
	power := float64(bestK)*pp.reduced.W2 - pp.reduced.Rho*t + pp.reduced.Theta(load)
	return Selection{Subset: subset, T: t, Power: power}, nil
}

// QueryExact returns the provably power-optimal on-set of size ≥ minK for
// the given load, restricted (like the paper) to the t ≥ 0 regime.
//
// For each k, the maximum k-subset coordinate sum S_k(t) is continuous,
// strictly decreasing and piecewise linear in t with breakpoints only at
// event times, so the optimal t for that k — the largest t with
// S_k(t) ≥ load — is found by the piece-first search (lastCovered) and
// one linear equation inside the bracketing interval. The subset is the k
// front-most particles there. Runtime O(n lg n) per query after
// preprocessing: O(lg n) per k, plus one O(n) selection of the winner's
// front set.
func (pp *Preprocessed) QueryExact(load float64, minK int) (Selection, error) {
	if minK < 1 {
		minK = 1
	}
	n := len(pp.reduced.Pairs)
	best := Selection{Power: math.Inf(1)}
	bestK, bestE := 0, 0
	for k := minK; k <= n; k++ {
		t, e, ok := pp.bestTimeFor(k, load)
		if !ok {
			continue
		}
		power := float64(k)*pp.reduced.W2 - pp.reduced.Rho*t + pp.reduced.Theta(load)
		if power < best.Power-1e-12 || (math.Abs(power-best.Power) <= 1e-12 && k < bestK) {
			best = Selection{T: t, Power: power}
			bestK, bestE = k, e
		}
	}
	if math.IsInf(best.Power, 1) {
		return Selection{}, fmt.Errorf("%w: no feasible subset of size ≥ %d at t ≥ 0", ErrInfeasible, minK)
	}
	best.Subset = pp.frontSet(bestE, bestK)
	return best, nil
}

// QueryExactK returns the power-optimal subset of exactly k machines for
// the given load (t ≥ 0 regime), or ErrInfeasible when no k-subset can
// carry the load at a non-negative t. Callers that need to re-score
// candidate sizes under additional constraints (for example the supply-
// temperature clamp) iterate k themselves with this method.
func (pp *Preprocessed) QueryExactK(load float64, k int) (Selection, error) {
	n := len(pp.reduced.Pairs)
	if k < 1 || k > n {
		return Selection{}, fmt.Errorf("core: k = %d outside [1, %d]", k, n)
	}
	t, e, ok := pp.bestTimeFor(k, load)
	if !ok {
		return Selection{}, fmt.Errorf("%w: no %d-subset carries load %v at t ≥ 0", ErrInfeasible, k, load)
	}
	subset := pp.frontSet(e, k)
	power := float64(k)*pp.reduced.W2 - pp.reduced.Rho*t + pp.reduced.Theta(load)
	return Selection{Subset: subset, T: t, Power: power}, nil
}

// bestTimeFor returns the largest t ≥ 0 at which the k front-most
// particles still carry load, together with the index of the event
// interval containing t. ok is false when even t = 0 is infeasible for
// this k.
func (pp *Preprocessed) bestTimeFor(k int, load float64) (t float64, event int, ok bool) {
	j, e, ok := pp.lastCovered(k, load, nil)
	if !ok {
		return 0, 0, false
	}
	// Within [events[e], events[e+1]) the k-set is fixed; solve
	// segA − t·segB = load on that piece.
	tStar := (pp.segA[j] - load) / pp.segB[j]
	if tStar < pp.events[e] {
		tStar = pp.events[e]
	}
	if e+1 < len(pp.events) && tStar > pp.events[e+1] {
		tStar = pp.events[e+1]
	}
	return tStar, e, true
}
