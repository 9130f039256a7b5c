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
// (refineUnion) that repairs membership at unit boundaries. The
// optimality gap therefore lives in the subset choice alone, at every
// depth, exactly as DESIGN.md §7 argues for depth 2.
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

// healthyAggs returns every leaf's full water-filling aggregate.
func (pt *planTree) healthyAggs() []podAgg {
	aggs := make([]podAgg, len(pt.pods))
	for j, pd := range pt.pods {
		aggs[j] = podAgg{sumA: pd.sumA, sumB: pd.sumB, cap: float64(len(pd.ids))}
	}
	return aggs
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
//   - the flat Snapshot's leaf answers from its kinetic tables
//     (clampedSelect); a pod leaf from leafSelect over its machines, or
//     over its survivors when the degraded path restricted it
//     (surv[leaf] non-nil).
//
// Allocations at or below the water-fill noise floor (1e-12) prune the
// subtree. aggs holds the per-leaf aggregates the interior curves sum —
// healthy or survivor-restricted — so one recursion serves both paths.
func (pt *planTree) selectFor(u *Unit, load float64, aggs []podAgg, surv [][]int, w *leafWalk) error {
	if load <= 1e-12 {
		return nil
	}
	if u.leaf != nil {
		pd := u.leaf
		var local []int
		if pd.pre != nil {
			k, e, _ := clampedSelect(pd.pre, load, pd.bounds)
			if k == 0 {
				return fmt.Errorf("%w: no machine subset satisfies load %v within constraints", ErrInfeasible, load)
			}
			local = pd.pre.frontSet(e, k)
		} else {
			var own []int
			if surv != nil {
				own = surv[u.lo]
			}
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

// selectUnion returns the healthy on-set for the given room load: the
// recursive allocator splits the load down the tree, each leaf picks its
// clamped power-optimal front set, and the union — repaired by the
// bounded exchange when there is more than one leaf — is returned in
// ascending global-ID order.
func (pt *planTree) selectUnion(load float64) ([]int, error) {
	n := pt.profile.Size()
	if load <= 0 {
		return nil, fmt.Errorf("core: load %v must be positive (power everything off instead)", load)
	}
	if load > float64(n) {
		return nil, fmt.Errorf("%w: load %v exceeds cluster capacity %d", ErrInfeasible, load, n)
	}
	var w leafWalk
	if err := pt.selectFor(pt.root, load, pt.healthyAggs(), nil, &w); err != nil {
		return nil, err
	}
	union := w.union
	if len(union) == 0 {
		return nil, fmt.Errorf("%w: no pod accepts any of load %v", ErrInfeasible, load)
	}
	if len(pt.pods) > 1 {
		union = pt.refineUnion(union, load)
	}
	sort.Ints(union)
	return union, nil
}

// plan is the shared Plan body: recursive subset selection followed by
// the room's exact closed form over the union, so the load split and
// supply temperature are exact for the chosen machines and any
// optimality gap lives in the subset choice alone.
//
// A single leaf ranks subset sizes by the unbounded closed form
// (clampedSelect), which cannot see the 0 ≤ L_i ≤ 1 box. Where the box
// repair pinned a machine that ranking can be wrong, so all-on — one of
// the sets the paper's solution searches, which it may therefore never
// draw more than — is solved too and the cheaper plan wins. Trees of
// several leaves never take this path.
func (pt *planTree) plan(load float64) (*Plan, error) {
	union, err := pt.selectUnion(load)
	if err != nil {
		return nil, err
	}
	plan, pinned, err := pt.profile.solveBounded(union, load)
	if err != nil {
		return nil, err
	}
	if n := pt.profile.Size(); pinned && len(pt.pods) == 1 && len(union) < n {
		if allOn, err := pt.profile.SolveBounded(allIDs(n), load); err == nil && pt.profile.PlanPower(allOn) < pt.profile.PlanPower(plan) {
			plan = allOn
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

// selectAvoiding is the degraded analogue of selectUnion: leaf
// aggregates restricted to the survivors, the same recursive water-fill,
// per-leaf selection (leafSelect over all machines of untouched leaves,
// over the survivors of affected ones), and the bounded exchange over
// the union with the avoid set masked out of every add and swap.
func (pt *planTree) selectAvoiding(load float64, blocked []bool) ([]int, error) {
	aggs := make([]podAgg, len(pt.pods))
	survLocal := make([][]int, len(pt.pods))
	for j, pd := range pt.pods {
		agg := podAgg{sumA: pd.sumA, sumB: pd.sumB, cap: float64(len(pd.ids))}
		touched := false
		for li, id := range pd.ids {
			if blocked[id] {
				touched = true
				agg.sumA -= pd.reduced.Pairs[li].A
				agg.sumB -= pd.reduced.Pairs[li].B
				agg.cap--
			}
		}
		if touched {
			surv := make([]int, 0, int(agg.cap))
			for li, id := range pd.ids {
				if !blocked[id] {
					surv = append(surv, li)
				}
			}
			survLocal[j] = surv
		}
		aggs[j] = agg
	}
	var w leafWalk
	if err := pt.selectFor(pt.root, load, aggs, survLocal, &w); err != nil {
		return nil, err
	}
	union := w.union
	if len(union) == 0 {
		return nil, fmt.Errorf("%w: no pod accepts any of load %v around %d failures",
			ErrInfeasible, load, countBlocked(blocked))
	}
	union = pt.refineUnionBlocked(union, load, blocked)
	union = pt.growUnion(union, load, blocked)
	sort.Ints(union)
	return union, nil
}

// planAvoiding is the shared PlanAvoiding body: consolidation and load
// split over the machines not named in avoid. A nil or empty avoid list
// is the healthy plan. IDs outside [0, n) are an error; a load beyond
// the survivor count (or below any feasible supply temperature) returns
// ErrInfeasible — the serving layer sheds to the surviving capacity and
// retries. With a single leaf the answer is bit-identical to the flat
// degraded solver Profile.PlanOver over the survivors.
func (pt *planTree) planAvoiding(load float64, avoid []int) (*Plan, error) {
	n := pt.profile.Size()
	av, err := canonAvoid(avoid, n)
	if err != nil {
		return nil, err
	}
	if len(av) == 0 {
		return pt.plan(load)
	}
	if load <= 0 {
		return nil, fmt.Errorf("core: load %v must be positive (power everything off instead)", load)
	}
	m := n - len(av)
	if m == 0 {
		return nil, fmt.Errorf("%w: all %d machines avoided", ErrInfeasible, n)
	}
	if load > float64(m) {
		return nil, fmt.Errorf("%w: load %v exceeds the %d surviving machines", ErrInfeasible, load, m)
	}
	blocked := make([]bool, n)
	for _, i := range av {
		blocked[i] = true
	}
	if len(pt.pods) == 1 {
		plan := pt.profile.PlanOver(survivorPool(n, blocked), load)
		if plan == nil {
			return nil, fmt.Errorf("%w: no feasible plan for load %v over %d survivors", ErrInfeasible, load, m)
		}
		return plan, nil
	}
	union, err := pt.selectAvoiding(load, blocked)
	if err != nil {
		return nil, err
	}
	plan, err := pt.profile.SolveBounded(union, load)
	if err != nil {
		// The union's box repair can pin enough machines to starve the
		// free set; the full survivor pool is the most feasible subset
		// there is, so fall back to it before declaring infeasibility.
		plan, err = pt.profile.SolveBounded(survivorPool(n, blocked), load)
		if err != nil {
			return nil, err
		}
	}
	if err := pt.profile.ValidatePlan(plan, load, 1e-6); err != nil {
		return nil, fmt.Errorf("core: degraded %s produced invalid plan: %w", pt.kind(), err)
	}
	return plan, nil
}

// consolidate is the shared Consolidate body: the on-set from
// selectUnion, topped up deterministically with the front-most unused
// machines when the union is smaller than minK, scored with the room's
// Eq. 23.
func (pt *planTree) consolidate(load float64, minK int) (Selection, error) {
	if minK < 1 {
		minK = 1
	}
	union, err := pt.selectUnion(load)
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

// makeLeaf builds one leaf shard over the listed (ascending, contiguous)
// global machine IDs: the pod-local pair slice, the Eq. 21–22 aggregates
// accumulated in ID order, and the share-scaled cooling leverage and
// clamp bounds (share = B_j/B_total; see the podded.go file comment).
// Every construction path — NewPodSnapshot, Patch, and the flat
// Snapshot's single leaf — funnels through this one loop so the sums are
// bit-identical across them.
func makeLeaf(room Reduced, p *Profile, ids []int, totalB float64) *pod {
	var sumA, sumB float64
	pairs := make([]Pair, len(ids))
	for i, id := range ids {
		pairs[i] = room.Pairs[id]
		sumA += pairs[i].A
		sumB += pairs[i].B
	}
	share := sumB / totalB
	return &pod{
		ids:   ids,
		sumA:  sumA,
		sumB:  sumB,
		share: share,
		reduced: Reduced{
			Pairs:      pairs,
			W2:         p.W2,
			Rho:        p.CoolFactor * p.W1 * share,
			CoolFactor: p.CoolFactor * share,
			SetPointC:  p.SetPointC,
			W1:         p.W1,
		},
		bounds: p.bounds(share),
	}
}
