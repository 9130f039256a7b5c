package core

import (
	"fmt"
	"math"
)

// This file holds the survivor primitives of the one planning body in
// unit.go (planTree.plan). A degraded request — "plan this load around
// these failed machines" — is the healthy problem over the survivors, so
// it runs the same body with a blocked mask, on every topology:
//
//   - leafAggs keeps an untouched leaf's Eq. 21–22 aggregates verbatim
//     and gives a touched one survivor-restricted aggregates
//     (A′_j, B′_j, cap′_j) and its survivors' indices;
//   - selectFor runs the one leaf solver, leafSelect, over a touched
//     leaf's survivors — the whole-room Snapshot's table-backed leaf
//     included, since its tables answer only for the whole room;
//   - the water-filling split (interior survivor curves are the clamped
//     sums of their subtrees'), the bounded exchange and growUnion run
//     with the avoid set masked out of every move.
//
// A single leaf's degraded plan is therefore the healthy plan of the
// room without the failed machines. Profile.PlanOver, the O(n²) prefix
// sweep over the survivors, is kept only as a reference to measure
// against.

// podAgg is one leaf's water-filling aggregate: Σ K_i, Σ α_i/β_i, and
// the machine-count capacity, restricted to the machines still in
// service. Interior nodes sum these over their subtrees (Unit.aggOver).
type podAgg struct {
	sumA, sumB, cap float64
}

// avoidMask validates the avoid list against the room size and returns
// its mask (nil for an empty list) and the number of machines left in
// service; duplicates count once. Out-of-range IDs are an error — a
// client naming a machine the room does not have is working from stale
// inventory, and silently ignoring it would hide that.
func avoidMask(avoid []int, n int) ([]bool, int, error) {
	if len(avoid) == 0 {
		return nil, n, nil
	}
	blocked := make([]bool, n)
	m := n
	for _, id := range avoid {
		if id < 0 || id >= n {
			return nil, 0, fmt.Errorf("core: avoid machine %d outside [0, %d)", id, n)
		}
		if !blocked[id] {
			blocked[id] = true
			m--
		}
	}
	return blocked, m, nil
}

// survivorPool lists the unblocked machine IDs ascending; a nil mask
// blocks none.
func survivorPool(n int, blocked []bool) []int {
	pool := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if blocked == nil || !blocked[i] {
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

// growUnion tops the union up until it can carry the load at a feasible
// supply temperature: while the member count is below ⌈load⌉ or the
// aggregate Eq. 21 supply W1·(ΣA − L)/ΣB sits below the actuator
// minimum, the front-most unused survivor joins. Adding machines only
// raises the optimal supply (each new K_i·β_i/α_i is far above the
// actuation range), so the loop is monotone and SolveBounded succeeds on
// the result whenever any survivor subset is feasible. Every plan runs
// it, so feasibility is tested from the union's sums before anything
// n-long is allocated.
func (pt *planTree) growUnion(union []int, load float64, blocked []bool) []int {
	r := pt.room
	var sumA, sumB float64
	for _, i := range union {
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
	n := len(r.Pairs)
	in := make([]bool, n)
	for _, i := range union {
		in[i] = true
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
