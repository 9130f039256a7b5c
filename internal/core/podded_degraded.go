package core

import (
	"fmt"
	"math"
	"sort"
)

// This file implements the degraded (avoid-set) half of the recursive
// planner: PlanAvoiding answers "plan this load around these failed
// machines" without falling back to the flat O(n²) pool solver the
// hierarchy exists to avoid. The recursion itself lives in unit.go
// (planTree.selectAvoiding / planAvoiding); this file owns the
// survivor-restricted primitives it composes.
//
// The structure mirrors Plan. Pods untouched by the avoid set reuse
// their kinetic tables and Eq. 21–22 aggregates verbatim; an affected
// pod recomputes survivor-restricted aggregates (A′_j, B′_j, cap′_j) and
// replaces its table lookup with a survivor prefix sweep — survivors
// ordered front-most at the pod's own particle time, every prefix scored
// with the same clamped Eq. 23 objective clampedSelect uses. The
// water-filling split (recursing through interior nodes, whose survivor
// curves are just the clamped sums of their subtrees'), the union
// SolveBounded, and the bounded exchange then run over the mixed set
// exactly as in the healthy path, with the avoid set masked out of every
// move. With one pod the whole query delegates to the flat
// Profile.PlanOver over the survivors, so the single-leaf degraded plan
// is bit-identical to the exact degraded plan.

// podAgg is one leaf's water-filling aggregate: Σ K_i, Σ α_i/β_i, and
// the machine-count capacity, restricted to the machines still in
// service. Interior nodes sum these over their subtrees (Unit.aggOver).
type podAgg struct {
	sumA, sumB, cap float64
}

// canonAvoid validates the avoid list against the room size and returns
// a sorted, deduplicated copy. Out-of-range IDs are an error — a client
// naming a machine the room does not have is working from stale
// inventory, and silently ignoring it would hide that.
func canonAvoid(avoid []int, n int) ([]int, error) {
	if len(avoid) == 0 {
		return nil, nil
	}
	out := append([]int(nil), avoid...)
	sort.Ints(out)
	if out[0] < 0 || out[len(out)-1] >= n {
		bad := out[0]
		if bad >= 0 {
			bad = out[len(out)-1]
		}
		return nil, fmt.Errorf("core: avoid machine %d outside [0, %d)", bad, n)
	}
	dst := out[:1]
	for _, id := range out[1:] {
		if id != dst[len(dst)-1] {
			dst = append(dst, id)
		}
	}
	return dst, nil
}

// survivorPool lists the unblocked machine IDs ascending.
func survivorPool(n int, blocked []bool) []int {
	pool := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !blocked[i] {
			pool = append(pool, i)
		}
	}
	return pool
}

// waterFill is the allocator over explicit aggregates: bisect on the
// surplus parameter s of Eq. 21 so that Σ_j clamp(A_j − s·B_j, 0, cap_j)
// equals the load. The recursive selector runs it at every interior node
// of the planner tree — over healthy leaf aggregates on the main path,
// over survivor-restricted ones on the degraded path. Aggregates with no
// remaining capacity take zero load.
func waterFill(aggs []podAgg, load float64) []float64 {
	out := make([]float64, len(aggs))
	at := func(j int, s float64) float64 {
		if aggs[j].cap <= 0 || aggs[j].sumB <= 0 {
			return 0
		}
		l := aggs[j].sumA - s*aggs[j].sumB
		if l < 0 {
			return 0
		}
		if l > aggs[j].cap {
			return aggs[j].cap
		}
		return l
	}
	total := func(s float64) float64 {
		sum := 0.0
		for j := range aggs {
			sum += at(j, s)
		}
		return sum
	}
	// Bracket: at sLo every pod is at capacity (total ≥ load), at sHi
	// every pod is empty.
	sLo, sHi := math.Inf(1), math.Inf(-1)
	for j := range aggs {
		if aggs[j].cap <= 0 || aggs[j].sumB <= 0 {
			continue
		}
		if v := (aggs[j].sumA - aggs[j].cap) / aggs[j].sumB; v < sLo {
			sLo = v
		}
		if v := aggs[j].sumA / aggs[j].sumB; v > sHi {
			sHi = v
		}
	}
	if math.IsInf(sLo, 1) {
		return out // nothing survives anywhere
	}
	for iter := 0; iter < 100; iter++ {
		mid := (sLo + sHi) / 2
		if total(mid) >= load {
			sLo = mid
		} else {
			sHi = mid
		}
	}
	for j := range aggs {
		out[j] = at(j, sLo)
	}
	return out
}

// survivorSelect picks one affected pod's on-set over its surviving
// machines: survivors ordered front-most at the pod's own particle time
// for its allocated load, then every prefix size k ≥ ⌈load⌉ scored with
// the clamped Eq. 23 objective and cooling-floor stop clampedSelect
// applies to the kinetic tables, restricted to the survivor prefix
// order. pairs and surv are pod-local, as are the returned indices.
func survivorSelect(pairs []Pair, surv []int, load float64, b clampBounds) ([]int, bool) {
	m := len(surv)
	minK := int(math.Ceil(load - 1e-9))
	if minK < 1 {
		minK = 1
	}
	if minK > m {
		return nil, false
	}
	var allA, allB float64
	for _, i := range surv {
		allA += pairs[i].A
		allB += pairs[i].B
	}
	t0 := (allA - load) / allB
	if t0 < 0 {
		t0 = 0
	}
	order := append([]int(nil), surv...)
	sortFront(pairs, order, t0)
	var prefA, prefB float64
	bestK := 0
	bestPower := math.Inf(1)
	for k := 1; k <= m; k++ {
		prefA += pairs[order[k-1]].A
		prefB += pairs[order[k-1]].B
		if k < minK {
			continue
		}
		if b.floor(k, load) >= bestPower-1e-9 {
			break // no larger prefix can win (clampBounds.floor)
		}
		t := (prefA - load) / prefB
		if t < 0 {
			continue
		}
		if power, ok := b.power(k, t, load); ok && power < bestPower-1e-9 {
			bestPower, bestK = power, k
		}
	}
	if bestK == 0 {
		return nil, false
	}
	out := append([]int(nil), order[:bestK]...)
	sort.Ints(out)
	return out, true
}

func countBlocked(blocked []bool) int {
	k := 0
	for _, b := range blocked {
		if b {
			k++
		}
	}
	return k
}

// growUnion tops the union up until it can carry the load at a feasible
// supply temperature: while the member count is below ⌈load⌉ or the
// aggregate Eq. 21 supply W1·(ΣA − L)/ΣB sits below the actuator
// minimum, the front-most unused survivor joins. Adding machines only
// raises the optimal supply (each new K_i·β_i/α_i is far above the
// actuation range), so the loop is monotone and SolveBounded succeeds on
// the result whenever any survivor subset is feasible.
func (pt *planTree) growUnion(union []int, load float64, blocked []bool) []int {
	r := pt.room
	n := len(r.Pairs)
	in := make([]bool, n)
	var sumA, sumB float64
	for _, i := range union {
		in[i] = true
		sumA += r.Pairs[i].A
		sumB += r.Pairs[i].B
	}
	minK := int(math.Ceil(load - 1e-9))
	if minK < 1 {
		minK = 1
	}
	feasible := func() bool {
		return len(union) >= minK && pt.profile.W1*(sumA-load)/sumB >= pt.profile.TAcMinC
	}
	if feasible() {
		return union
	}
	t := (sumA - load) / sumB
	if t < 0 {
		t = 0
	}
	rest := make([]int, 0, n-len(union))
	for i := 0; i < n; i++ {
		if !in[i] && (blocked == nil || !blocked[i]) {
			rest = append(rest, i)
		}
	}
	sortFront(r.Pairs, rest, t)
	for _, i := range rest {
		union = append(union, i)
		sumA += r.Pairs[i].A
		sumB += r.Pairs[i].B
		if feasible() {
			break
		}
	}
	return union
}

// PlanAvoiding is the degraded hierarchical plan: consolidation and load
// split over the machines not named in avoid. A nil or empty avoid list
// is the healthy Plan. IDs outside [0, n) are an error; a load beyond
// the survivor count (or below any feasible supply temperature) returns
// ErrInfeasible — the serving layer sheds to the surviving capacity and
// retries. With a single pod the answer is bit-identical to the flat
// degraded solver Profile.PlanOver over the survivors, at every depth.
func (ps *PodSnapshot) PlanAvoiding(load float64, avoid []int) (*Plan, error) {
	return ps.planAvoiding(load, avoid)
}
