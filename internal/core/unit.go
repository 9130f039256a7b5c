package core

import (
	"fmt"
	"math"
	"sort"
)

// This file is the recursive planning core shared by every topology the
// package serves: the flat whole-room Snapshot, the two-level pod-sharded
// PodSnapshot, and pods-of-pods trees of any depth. One abstraction —
// the plannable Unit — replaces what used to be two parallel
// implementations of the same five operations (Plan, PlanAvoiding,
// MaxLoad, Consolidate, Patch):
//
//   - A leaf Unit plans its contiguous machine range from the range's
//     pairs, the Eq. 21–22 aggregates A = Σ K_i, B = Σ α_i/β_i and the
//     share-scaled clamp bounds. A pod leaf solves each subset size by
//     Dinkelbach's iteration (leafSelect, leafMaxLoad in select.go) and
//     holds no tables. The whole-room Snapshot is the degenerate
//     single-leaf tree whose one range is the entire room; its leaf
//     alone keeps kinetic tables (Preprocess), which make it the exact
//     planner of Algorithms 1–2.
//
//   - An interior Unit owns child units and plans by water-filling its
//     load over the children's aggregates: Eq. 21 says the exact optimum
//     loads machine i at L_i = K_i − s·(α_i/β_i) for one shared surplus
//     s, so a subtree's response to s is the clamped aggregate curve
//     clamp(ΣA − s·ΣB, 0, cap) — a super-machine. Bisecting s over the
//     children (waterFill) and recursing gives each leaf its slice.
//
// The final answer is always exact for the chosen machine set: the leaf
// selections are unioned and the room's closed form (SolveBounded) runs
// once over the union, preceded by the bounded greedy exchange
// (refineUnionBlocked) that repairs membership at unit boundaries. The
// optimality gap therefore lives in the subset choice alone, at every
// depth, exactly as DESIGN.md §7 argues for depth 2.
//
// Healthy and degraded requests share that one body (plan): a degraded
// request is the same problem over the machines still in service, so
// it passes a blocked mask that restricts the leaf aggregates, moves
// every touched leaf onto leafSelect over its survivors, and keeps the
// failed machines out of every exchange move (podded_degraded.go). A
// single leaf's degraded plan is thus the healthy plan of the room
// without the failed machines.
//
// Bit-identity invariants the tests pin down:
//
//   - A single-leaf tree (flat Snapshot, or p = 1 pods) passes the load
//     straight to the leaf — no water-fill runs — so those plans are
//     bit-identical to the historical flat planner.
//   - An interior node with one child passes its load through unchanged,
//     so degenerate splits (chains, groups of one) cannot perturb floats.
//   - A depth-2 tree water-fills once over all leaves with left-to-right
//     summation — exactly the historical splitLoad — so the two-level
//     PodSnapshot is the depth-2 special case of this code path, bit for
//     bit, not a fork.

// Unit is one node of the recursive planner tree. Units are frozen at
// construction and shared lock-free alongside their Snapshot/PodSnapshot
// (the snapshotmut analyzer enforces the deep-freeze outside this
// package); every accessor is read-only and safe for concurrent use.
type Unit struct {
	leaf     *pod    // non-nil iff this is a leaf
	children []*Unit // non-nil iff this is an interior node
	lo, hi   int     // leaf-index range [lo, hi) this subtree covers
}

// IsLeaf reports whether the unit is a leaf (owns kinetic tables) rather
// than an interior allocator node.
func (u *Unit) IsLeaf() bool { return u.leaf != nil }

// Children returns the child units, nil for a leaf. Treat as read-only.
func (u *Unit) Children() []*Unit { return u.children }

// Leaves returns the number of leaf units under (and including) u.
func (u *Unit) Leaves() int { return u.hi - u.lo }

// Machines returns the number of machines the subtree covers.
func (u *Unit) Machines() int {
	if u.leaf != nil {
		return len(u.leaf.ids)
	}
	total := 0
	for _, c := range u.children {
		total += c.Machines()
	}
	return total
}

// Depth returns the number of levels in the subtree: 1 for a leaf, 2 for
// an interior node over leaves (the classic pod split), 3 for pods of
// pods, and so on.
func (u *Unit) Depth() int {
	if u.leaf != nil {
		return 1
	}
	d := 0
	for _, c := range u.children {
		if cd := c.Depth(); cd > d {
			d = cd
		}
	}
	return d + 1
}

// buildUnitTree assembles the recursive tree over leaves[lo:hi). depth
// bounds the number of levels: depth ≤ 2 hangs every leaf directly under
// one interior node (the classic two-level split); larger depths insert
// balanced contiguous grouping tiers with fan ≈ P^(1/(depth−1)) children
// per node, so a depth-3 tree over P leaves groups them into ≈√P pods of
// pods. A single leaf is returned as itself — load passes through
// untouched, which is what keeps p = 1 (and every degenerate split) bit
// identical to the flat planner.
func buildUnitTree(leaves []*pod, lo, hi, depth int) *Unit {
	if hi-lo == 1 {
		return &Unit{leaf: leaves[lo], lo: lo, hi: hi}
	}
	u := &Unit{lo: lo, hi: hi}
	if depth <= 2 {
		u.children = make([]*Unit, 0, hi-lo)
		for j := lo; j < hi; j++ {
			u.children = append(u.children, buildUnitTree(leaves, j, j+1, 1))
		}
		return u
	}
	fan := int(math.Ceil(math.Pow(float64(hi-lo), 1/float64(depth-1))))
	if fan < 2 {
		fan = 2
	}
	if fan > hi-lo {
		fan = hi - lo
	}
	base, extra := (hi-lo)/fan, (hi-lo)%fan
	u.children = make([]*Unit, 0, fan)
	start := lo
	for g := 0; g < fan; g++ {
		size := base
		if g < extra {
			size++
		}
		u.children = append(u.children, buildUnitTree(leaves, start, start+size, depth-1))
		start += size
	}
	return u
}

// aggOver sums the per-leaf water-filling aggregates across the subtree,
// left to right — the Eq. 21–22 super-machine an interior node presents
// to its parent. The caller supplies the leaf aggregates (healthy or
// survivor-restricted), so one tree serves both paths.
func (u *Unit) aggOver(aggs []podAgg) podAgg {
	var out podAgg
	for j := u.lo; j < u.hi; j++ {
		out.sumA += aggs[j].sumA
		out.sumB += aggs[j].sumB
		out.cap += aggs[j].cap
	}
	return out
}

// planTree is the shared planning context every frozen topology embeds:
// the room-level reduced instance, the leaf shards in DFS order, and the
// recursive unit tree over them. All planning bodies live here — the
// exported Snapshot/PodSnapshot methods are thin wrappers — which is
// what "one planning code path" means mechanically.
type planTree struct {
	profile *Profile
	room    Reduced
	pods    []*pod // leaf shards, DFS (= ascending machine-range) order
	root    *Unit
	totalB  float64
	// depth is the requested tree depth; Patch rebuilds the same shape.
	depth int
}

// leafAggs returns every leaf's water-filling aggregate over its
// machines in service and, when blocked is non-nil, the survivors' local
// indices of each leaf the mask touches (nil for an untouched leaf). A
// touched leaf's aggregate is its full sums less the blocked machines'
// pairs, so untouched leaves keep their sums verbatim.
func (pt *planTree) leafAggs(blocked []bool) ([]podAgg, [][]int) {
	aggs := make([]podAgg, len(pt.pods))
	var surv [][]int
	if blocked != nil {
		surv = make([][]int, len(pt.pods))
	}
	for j, pd := range pt.pods {
		aggs[j] = podAgg{sumA: pd.sumA, sumB: pd.sumB, cap: float64(len(pd.ids))}
		if blocked == nil {
			continue
		}
		touched := false
		for li, id := range pd.ids {
			if blocked[id] {
				touched = true
				aggs[j].sumA -= pd.reduced.Pairs[li].A
				aggs[j].sumB -= pd.reduced.Pairs[li].B
				aggs[j].cap--
			}
		}
		if touched {
			own := make([]int, 0, int(aggs[j].cap))
			for li, id := range pd.ids {
				if !blocked[id] {
					own = append(own, li)
				}
			}
			surv[j] = own
		}
	}
	return aggs, surv
}

// leafWalk is one descent's state: the union it gathers (global machine
// IDs, DFS order), the solver buffers its leaves share in turn, and the
// last leaf's best time. Neighbouring leaves solve near one room-level
// time, so that time starts the next leaf's iteration; the first leaf
// starts from its all-on time.
type leafWalk struct {
	union  []int
	d      dinkelbach
	t      float64
	solved bool
}

// selectFor recursively allocates load down the unit tree and gathers
// every leaf's on-set into w.union:
//
//   - an interior node with one child passes the load through unchanged;
//   - an interior node water-fills over its children's aggregate curves
//     (waterFill — the same bisection at every level) and recurses;
//   - a leaf the avoid mask leaves whole answers from its kinetic tables
//     (clampedSelect) when it has them, else from leafSelect over all
//     its machines; a leaf the mask touches (surv[leaf] non-nil) runs
//     leafSelect over its survivors.
//
// Allocations at or below the water-fill noise floor (1e-12) prune the
// subtree. aggs holds the per-leaf aggregates the interior curves sum
// (leafAggs), so one recursion serves healthy and degraded requests.
func (pt *planTree) selectFor(u *Unit, load float64, aggs []podAgg, surv [][]int, w *leafWalk) error {
	if load <= 1e-12 {
		return nil
	}
	if u.leaf != nil {
		pd := u.leaf
		var own []int
		if surv != nil {
			own = surv[u.lo]
		}
		var local []int
		if pd.pre != nil && own == nil {
			k, e, _ := clampedSelect(pd.pre, load, pd.bounds)
			if k == 0 {
				return fmt.Errorf("%w: no machine subset satisfies load %v within constraints", ErrInfeasible, load)
			}
			local = pd.pre.frontSet(e, k)
		} else {
			start := w.t
			if !w.solved {
				start = math.Max(0, (aggs[u.lo].sumA-load)/aggs[u.lo].sumB)
			}
			var t float64
			// A leaf whose clamp admits no subset powers every machine
			// it has left, always capacity-feasible for its slice.
			if local, t = w.d.leafSelect(pd.reduced.Pairs, own, load, start, pd.bounds); local != nil {
				w.t, w.solved = t, true
			} else if local = own; local == nil {
				local = allIDs(len(pd.ids))
			}
		}
		for _, li := range local {
			w.union = append(w.union, pd.ids[li])
		}
		return nil
	}
	if len(u.children) == 1 {
		return pt.selectFor(u.children[0], load, aggs, surv, w)
	}
	childAggs := make([]podAgg, len(u.children))
	for i, c := range u.children {
		childAggs[i] = c.aggOver(aggs)
	}
	allocs := waterFill(childAggs, load)
	for i, c := range u.children {
		if err := pt.selectFor(c, allocs[i], aggs, surv, w); err != nil {
			return err
		}
	}
	return nil
}

// selectUnion returns the on-set for the given room load over the
// machines in service (all but those blocked marks; a nil mask marks
// none): the recursive allocator splits the load down the tree, each
// leaf picks its clamped power-optimal front set, the union is repaired
// by the bounded exchange when there is more than one leaf (blocked
// machines never join it) and grown until it can carry the load, and it
// is returned in ascending global-ID order.
func (pt *planTree) selectUnion(load float64, blocked []bool) ([]int, error) {
	n := pt.profile.Size()
	for _, b := range blocked {
		if b {
			n--
		}
	}
	switch {
	case load <= 0:
		return nil, fmt.Errorf("core: load %v must be positive (power everything off instead)", load)
	case n == 0:
		return nil, fmt.Errorf("%w: every machine avoided", ErrInfeasible)
	case load > float64(n):
		return nil, fmt.Errorf("%w: load %v exceeds the %d machines in service", ErrInfeasible, load, n)
	}
	aggs, surv := pt.leafAggs(blocked)
	var w leafWalk
	if err := pt.selectFor(pt.root, load, aggs, surv, &w); err != nil {
		return nil, err
	}
	union := w.union
	if len(union) == 0 {
		return nil, fmt.Errorf("%w: no pod accepts any of load %v", ErrInfeasible, load)
	}
	if len(pt.pods) > 1 {
		union = pt.refineUnionBlocked(union, load, blocked)
	}
	union = pt.growUnion(union, load, blocked)
	sort.Ints(union)
	return union, nil
}

// plan is the one Plan and PlanAvoiding body: consolidation and load
// split over the machines not named in avoid (every machine for an
// empty list). Recursive subset selection is followed by the room's
// exact closed form over the union, so the load split and supply
// temperature are exact for the chosen machines and any optimality gap
// lives in the subset choice alone. IDs outside [0, n) are an error; a
// load beyond the machines in service (or below any feasible supply
// temperature) returns ErrInfeasible — the serving layer sheds to the
// surviving capacity and retries.
//
// Every survivor on is the most feasible subset there is, so when the
// union's box repair starves its free set the plan falls back to it. A
// single leaf also solves it when the repair pinned a machine: the leaf
// ranks subset sizes by the unbounded closed form (clampedSelect,
// leafSelect), which cannot see the 0 ≤ L_i ≤ 1 box, and all survivors
// on is one of the sets the paper's solution searches, which it may
// therefore never draw more than. Trees of several leaves never take
// that second path.
func (pt *planTree) plan(load float64, avoid []int) (*Plan, error) {
	n := pt.profile.Size()
	blocked, m, err := avoidMask(avoid, n)
	if err != nil {
		return nil, err
	}
	union, err := pt.selectUnion(load, blocked)
	if err != nil {
		return nil, err
	}
	plan, pinned, err := pt.profile.solveBounded(union, load)
	switch {
	case err != nil:
		if plan, err = pt.profile.SolveBounded(survivorPool(n, blocked), load); err != nil {
			return nil, err
		}
	case pinned && len(pt.pods) == 1 && len(union) < m:
		if all, err := pt.profile.SolveBounded(survivorPool(n, blocked), load); err == nil && pt.profile.PlanPower(all) < pt.profile.PlanPower(plan) {
			plan = all
		}
	}
	if err := pt.profile.ValidatePlan(plan, load, 1e-6); err != nil {
		return nil, fmt.Errorf("core: %s produced invalid plan: %w", pt.kind(), err)
	}
	return plan, nil
}

// kind names the planner in diagnostics: the flat exact optimizer (the
// one tree whose leaf holds tables) and the hierarchy keep their
// historical error strings.
func (pt *planTree) kind() string {
	if pt.pods[0].pre != nil {
		return "optimizer"
	}
	return "hierarchical optimizer"
}

// consolidate is the shared Consolidate body: the on-set from
// selectUnion, topped up deterministically with the front-most unused
// machines when the union is smaller than minK, scored with the room's
// Eq. 23.
func (pt *planTree) consolidate(load float64, minK int) (Selection, error) {
	if minK < 1 {
		minK = 1
	}
	union, err := pt.selectUnion(load, nil)
	if err != nil {
		return Selection{}, err
	}
	if len(union) < minK {
		union, err = pt.topUp(union, load, minK)
		if err != nil {
			return Selection{}, err
		}
	}
	t, err := pt.room.TValue(union, load)
	if err != nil {
		return Selection{}, err
	}
	power, err := pt.room.SubsetPower(union, load)
	if err != nil {
		return Selection{}, err
	}
	return Selection{Subset: union, T: t, Power: power}, nil
}

// topUp grows the union to minK machines by adding the unused machines
// with the largest particle coordinate at the union's t-value — the same
// front-most rule the kinetic tables encode, applied to the leftovers.
// Deterministic: coordinate ties break by ID.
func (pt *planTree) topUp(union []int, load float64, minK int) ([]int, error) {
	n := pt.profile.Size()
	if minK > n {
		return nil, fmt.Errorf("core: minK = %d exceeds %d machines", minK, n)
	}
	t, err := pt.room.TValue(union, load)
	if err != nil {
		return nil, err
	}
	if t < 0 {
		t = 0
	}
	inUnion := make([]bool, n)
	for _, i := range union {
		inUnion[i] = true
	}
	rest := make([]int, 0, n-len(union))
	for i := 0; i < n; i++ {
		if !inUnion[i] {
			rest = append(rest, i)
		}
	}
	sortFront(pt.room.Pairs, rest, t)
	out := append(append([]int(nil), union...), rest[:minK-len(union)]...)
	sort.Ints(out)
	return out, nil
}

// maxLoadUnion gathers every leaf's best subset for its cooling-share of
// the budget (leafMaxLoad), DFS over the tree — the recursive half of
// maxLoad. Leaves the budget cannot serve contribute nothing. Only pod
// trees answer budgets here; a whole-room engine asks its tables.
func (pt *planTree) maxLoadUnion(u *Unit, budgetW float64, union *[]int) {
	if u.leaf != nil {
		pd := u.leaf
		res, err := leafMaxLoad(pd.reduced, budgetW*pd.share)
		if err != nil {
			return
		}
		for _, li := range res.Subset {
			*union = append(*union, pd.ids[li])
		}
		return
	}
	for _, c := range u.children {
		pt.maxLoadUnion(c, budgetW, union)
	}
}

// maxLoad is the shared MaxLoad body: each leaf proposes its best subset
// for its cooling-share of the budget, and the room's exact budget
// boundary (Eq. 23–24) is solved once over the union —
//
//	t* = (k·W2 + c·f_ac·T_SP + W1·ΣA − P_b)/(ρ + W1·ΣB),
//	L  = ΣA − t*·ΣB,
//
// clamped into the t ≥ 0 regime and the L ≤ k capacity cap, so the
// reported load never overstates what the union can actually serve under
// the budget.
func (pt *planTree) maxLoad(budgetW float64) (MaxLoadResult, error) {
	var union []int
	pt.maxLoadUnion(pt.root, budgetW, &union)
	if len(union) == 0 {
		return MaxLoadResult{}, fmt.Errorf("%w: budget %v W serves no pod", ErrInfeasible, budgetW)
	}
	sort.Ints(union)
	r := pt.room
	var sumA, sumB float64
	for _, i := range union {
		sumA += r.Pairs[i].A
		sumB += r.Pairs[i].B
	}
	k := float64(len(union))
	t := (k*r.W2 + r.CoolFactor*r.SetPointC + r.W1*sumA - budgetW) / (r.Rho + r.W1*sumB)
	if t < 0 {
		t = 0
	}
	load := sumA - t*sumB
	if load > k {
		load = k // capacity cap; t at the front for the capped load
		t = (sumA - load) / sumB
	}
	if load < 0 {
		return MaxLoadResult{}, fmt.Errorf("%w: budget %v W below the %d-machine floor", ErrInfeasible, budgetW, len(union))
	}
	return MaxLoadResult{Load: load, Subset: union, T: t}, nil
}

// leafSums is a leaf's O(n_j) part over the listed (ascending,
// contiguous) global machine IDs: its own copy of their pairs and the
// Eq. 21–22 aggregates A_j = Σ K_i and B_j = Σ α_i/β_i accumulated in ID
// order. Every construction path — NewPodSnapshot, Patch, and the flat
// Snapshot's single leaf — builds leaves with leafSums then setShare, so
// sums and scalars are bit-identical across them.
func leafSums(room Reduced, ids []int) *pod {
	pd := &pod{ids: ids, reduced: Reduced{Pairs: make([]Pair, len(ids))}}
	for i, id := range ids {
		pd.reduced.Pairs[i] = room.Pairs[id]
		pd.sumA += pd.reduced.Pairs[i].A
		pd.sumB += pd.reduced.Pairs[i].B
	}
	return pd
}

// setShare fills a leaf's share-scaled scalars from its sums: share =
// B_j/B_total, the share-scaled cooling leverage and the clamp bounds
// (see the podded.go file comment).
func (pd *pod) setShare(p *Profile, totalB float64) {
	pd.share = pd.sumB / totalB
	pd.reduced = Reduced{
		Pairs:      pd.reduced.Pairs,
		W2:         p.W2,
		Rho:        p.CoolFactor * p.W1 * pd.share,
		CoolFactor: p.CoolFactor * pd.share,
		SetPointC:  p.SetPointC,
		W1:         p.W1,
	}
	pd.bounds = p.bounds(pd.share)
}

// sumSpeeds returns B_total = Σ α_i/β_i over the pairs, in ID order.
func sumSpeeds(pairs []Pair) float64 {
	var total float64
	for _, pr := range pairs {
		total += pr.B
	}
	return total
}
