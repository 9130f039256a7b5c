package core

import (
	"fmt"
	"math"
)

// This file implements the paper's dual consolidation question,
// maxL(A, P_b, k) (§III-B): given a power budget P_b and a machine count
// k, what is the maximum load the cluster can serve without exceeding the
// budget, and with which machines?
//
// From Eq. 23–24, a k-subset S serving load L draws
//
//	P(S, L) = k·w2 − ρ·t_S + c·f_ac·T_SP + w1·L,
//	t_S     = (Σ_S a − L)/(Σ_S b),
//
// so along the budget boundary P = P_b the load L and the particle time t
// trade linearly: L(t) = (P_b − k·w2 − c·f_ac·T_SP + ρ·t)/w1, increasing
// in t. Feasibility requires the k front-most particles to cover the
// load, Σ x_i(t) ≥ L(t), and the front sum is strictly decreasing in t —
// so the maximum load sits at the unique crossing of the two curves,
// found by scanning the event intervals and solving one linear equation.

// MaxLoadResult is the outcome of a budget query.
type MaxLoadResult struct {
	// Load is the maximum serviceable load in machine-utilization units.
	Load float64
	// Subset lists the chosen machine IDs in ascending order.
	Subset []int
	// T is the particle time at the optimum (supply temperature = w1·T
	// under the model).
	T float64
}

// MaxLoadK answers maxL(A, P_b, k) for exactly k machines, restricted to
// the t ≥ 0 regime like the rest of the particle machinery. It returns
// ErrInfeasible when even zero load exceeds the budget.
func (pp *Preprocessed) MaxLoadK(budgetW float64, k int) (MaxLoadResult, error) {
	load, t, e, err := pp.maxLoadBoundary(budgetW, k)
	if err != nil {
		return MaxLoadResult{}, err
	}
	return MaxLoadResult{Load: load, Subset: pp.frontSet(e, k), T: t}, nil
}

// maxLoadBoundary solves the budget-boundary crossing for exactly k
// machines without materializing the subset — the front set costs an
// O(n) selection, so callers that sweep k (MaxLoad) defer it to the
// winning candidate only. Returns the maximum load, the particle time
// and the event interval containing it.
func (pp *Preprocessed) maxLoadBoundary(budgetW float64, k int) (load, t float64, event int, err error) {
	n := len(pp.reduced.Pairs)
	if k < 1 || k > n {
		return 0, 0, 0, fmt.Errorf("core: k = %d outside [1, %d]", k, n)
	}
	r := pp.reduced
	if r.W1 <= 0 || r.Rho <= 0 {
		return 0, 0, 0, fmt.Errorf("core: reduced instance missing W1/Rho")
	}
	// L(t) along the budget boundary: the crossing g(t) = front(t) − L(t)
	// is strictly decreasing; find the last event with g ≥ 0 and solve
	// inside its interval.
	bl := &budgetLine{c: budgetW - float64(k)*r.W2 - r.CoolFactor*r.SetPointC, rho: r.Rho, w1: r.W1}
	j, e, ok := pp.lastCovered(k, 0, bl)
	if !ok {
		// Budget cannot even cover the configuration at t = 0 for any
		// positive load on this k.
		if bl.loadAt(0) < 0 {
			return 0, 0, 0, fmt.Errorf("%w: budget %v W below the %d-machine floor", ErrInfeasible, budgetW, k)
		}
		// Load is capped by the front sum at t = 0 rather than the
		// budget; serving less than loadAt(0) stays under budget.
		return pp.segA[j], 0, 0, nil
	}
	// Solve segA − t·segB = L(t) inside interval e.
	num := pp.segA[j] - bl.c/r.W1
	den := pp.segB[j] + r.Rho/r.W1
	tStar := num / den
	if tStar < pp.events[e] {
		tStar = pp.events[e]
	}
	if e+1 < len(pp.events) && tStar > pp.events[e+1] {
		tStar = pp.events[e+1]
	}
	return bl.loadAt(tStar), tStar, e, nil
}

// MaxLoad answers the budget question over every machine count with a
// physical capacity cap (no machine holds more than one unit): the
// maximum serviceable load and the machine set that achieves it. The
// winning subset is materialized once, after the k sweep — per-k front
// sets would cost an O(n) selection per k, O(n²) per query.
func (pp *Preprocessed) MaxLoad(budgetW float64) (MaxLoadResult, error) {
	n := len(pp.reduced.Pairs)
	best := MaxLoadResult{Load: math.Inf(-1)}
	bestK, bestE := 0, 0
	for k := 1; k <= n; k++ {
		load, t, e, err := pp.maxLoadBoundary(budgetW, k)
		if err != nil {
			continue
		}
		if load > float64(k) {
			load = float64(k) // capacity cap
		}
		if load > best.Load {
			best = MaxLoadResult{Load: load, T: t}
			bestK, bestE = k, e
		}
	}
	if math.IsInf(best.Load, -1) {
		return MaxLoadResult{}, fmt.Errorf("%w: budget %v W serves no machine count", ErrInfeasible, budgetW)
	}
	if best.Load < 0 {
		best.Load = 0
	}
	best.Subset = pp.frontSet(bestE, bestK)
	return best, nil
}
