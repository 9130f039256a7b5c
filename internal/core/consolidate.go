package core

import (
	"coolopt/internal/mathx"
	"fmt"
	"math"
	"sort"
)

// Pair is the reduced per-machine description of paper §III-B:
// a_i = K_i and b_i = α_i/β_i. Consolidation works entirely on pairs.
type Pair struct {
	A float64 `json:"a"`
	B float64 `json:"b"`
}

// Reduced is the consolidation instance extracted from a profile. Given a
// subset S with |S| = k serving load L, the model's total power is
//
//	P(S) = k·W2 − Rho·t_S + Theta(L),  t_S = (Σ_S a_i − L)/(Σ_S b_i)
//
// (paper Eqs. 23–24), so minimizing power for fixed k means maximizing
// t_S — the select(A, k, L) problem.
type Reduced struct {
	Pairs []Pair
	// W2 is the per-machine idle power in Watts.
	W2 float64
	// Rho = CoolFactor·W1 in Watts per t-unit.
	Rho float64
	// CoolFactor and SetPointC are carried along to evaluate Theta.
	CoolFactor float64
	SetPointC  float64
	W1         float64
}

// Reduce extracts the consolidation instance from a profile.
func (p *Profile) Reduce() Reduced {
	pairs := make([]Pair, p.Size())
	for i := range pairs {
		pairs[i] = p.pair(i)
	}
	return Reduced{
		Pairs:      pairs,
		W2:         p.W2,
		Rho:        p.CoolFactor * p.W1,
		CoolFactor: p.CoolFactor,
		SetPointC:  p.SetPointC,
		W1:         p.W1,
	}
}

// pair returns machine i's Eq. 19 particle (K_i, α_i/β_i).
func (p *Profile) pair(i int) Pair {
	return Pair{A: p.K(i), B: p.RatioAB(i)}
}

// Theta returns θ = c·f_ac·T_SP + w1·L, the subset-independent part of
// Eq. 23.
func (r Reduced) Theta(load float64) float64 {
	return r.CoolFactor*r.SetPointC + r.W1*load
}

// TValue returns t_S for the given subset and load. The subset must be
// non-empty.
func (r Reduced) TValue(subset []int, load float64) (float64, error) {
	if len(subset) == 0 {
		return 0, fmt.Errorf("core: empty subset")
	}
	var sumA, sumB float64
	for _, i := range subset {
		if i < 0 || i >= len(r.Pairs) {
			return 0, fmt.Errorf("core: index %d out of range", i)
		}
		sumA += r.Pairs[i].A
		sumB += r.Pairs[i].B
	}
	return (sumA - load) / sumB, nil
}

// SubsetPower returns the model's total power for a subset serving load
// (Eq. 23).
func (r Reduced) SubsetPower(subset []int, load float64) (float64, error) {
	t, err := r.TValue(subset, load)
	if err != nil {
		return 0, err
	}
	return float64(len(subset))*r.W2 - r.Rho*t + r.Theta(load), nil
}

// Selection is the outcome of a consolidation algorithm.
type Selection struct {
	// Subset lists the chosen machine IDs in ascending order.
	Subset []int
	// T is the subset's t-value at the given load.
	T float64
	// Power is the model's total power (Eq. 23).
	Power float64
}

// BruteForce enumerates every subset of size ≥ minK — O(n·2ⁿ), the naive
// algorithm §III-B dismisses — and returns the power-optimal selection.
// It is the oracle the fast algorithms are tested against and only
// accepts n ≤ 24. minK lets callers enforce the physical capacity floor
// k ≥ ⌈load⌉ (each machine holds at most one utilization unit); pass 1 for
// the paper's uncapacitated formulation.
func (r Reduced) BruteForce(load float64, minK int) (Selection, error) {
	n := len(r.Pairs)
	if n == 0 {
		return Selection{}, fmt.Errorf("core: no pairs")
	}
	if n > 24 {
		return Selection{}, fmt.Errorf("core: brute force limited to 24 machines, got %d", n)
	}
	if minK < 1 {
		minK = 1
	}
	best := Selection{Power: math.Inf(1)}
	found := false
	for mask := 1; mask < 1<<uint(n); mask++ {
		var sumA, sumB float64
		k := 0
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				sumA += r.Pairs[i].A
				sumB += r.Pairs[i].B
				k++
			}
		}
		if k < minK {
			continue
		}
		t := (sumA - load) / sumB
		power := float64(k)*r.W2 - r.Rho*t + r.Theta(load)
		if power < best.Power-1e-12 || (math.Abs(power-best.Power) <= 1e-12 && k < len(best.Subset)) {
			subset := make([]int, 0, k)
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) != 0 {
					subset = append(subset, i)
				}
			}
			best = Selection{Subset: subset, T: t, Power: power}
			found = true
		}
	}
	if !found {
		return Selection{}, fmt.Errorf("%w: no subset of size ≥ %d", ErrInfeasible, minK)
	}
	return best, nil
}

// GreedyRatio is the first footnote-1 heuristic: sort machines by
// decreasing a_i/b_i and take the first k, for each feasible k, keeping
// the cheapest. The paper's counterexample shows it is not optimal.
func (r Reduced) GreedyRatio(load float64, minK int) (Selection, error) {
	n := len(r.Pairs)
	if n == 0 {
		return Selection{}, fmt.Errorf("core: no pairs")
	}
	if minK < 1 {
		minK = 1
	}
	order := allIDs(n)
	sort.Slice(order, func(x, y int) bool {
		rx := r.Pairs[order[x]].A / r.Pairs[order[x]].B
		ry := r.Pairs[order[y]].A / r.Pairs[order[y]].B
		if !mathx.Same(rx, ry) {
			return rx > ry
		}
		return order[x] < order[y]
	})
	return r.bestPrefix(order, load, minK)
}

// GreedyAdaptive is the second footnote-1 heuristic: start from the
// machine with the largest a_i/b_i, then repeatedly add the machine that
// maximizes the resulting t, recording the best stop point ≥ minK.
func (r Reduced) GreedyAdaptive(load float64, minK int) (Selection, error) {
	n := len(r.Pairs)
	if n == 0 {
		return Selection{}, fmt.Errorf("core: no pairs")
	}
	if minK < 1 {
		minK = 1
	}
	used := make([]bool, n)
	first := 0
	for i := 1; i < n; i++ {
		if r.Pairs[i].A/r.Pairs[i].B > r.Pairs[first].A/r.Pairs[first].B {
			first = i
		}
	}
	used[first] = true
	sumA, sumB := r.Pairs[first].A, r.Pairs[first].B
	chosen := []int{first}

	best := Selection{Power: math.Inf(1)}
	record := func() {
		k := len(chosen)
		if k < minK {
			return
		}
		t := (sumA - load) / sumB
		power := float64(k)*r.W2 - r.Rho*t + r.Theta(load)
		if power < best.Power {
			subset := append([]int(nil), chosen...)
			sort.Ints(subset)
			best = Selection{Subset: subset, T: t, Power: power}
		}
	}
	record()
	for len(chosen) < n {
		bestNext, bestT := -1, math.Inf(-1)
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			t := (sumA + r.Pairs[i].A - load) / (sumB + r.Pairs[i].B)
			if t > bestT {
				bestT = t
				bestNext = i
			}
		}
		used[bestNext] = true
		sumA += r.Pairs[bestNext].A
		sumB += r.Pairs[bestNext].B
		chosen = append(chosen, bestNext)
		record()
	}
	if math.IsInf(best.Power, 1) {
		return Selection{}, fmt.Errorf("%w: no subset of size ≥ %d", ErrInfeasible, minK)
	}
	return best, nil
}

// bestPrefix evaluates every prefix of the given machine order with length
// ≥ minK and returns the cheapest.
func (r Reduced) bestPrefix(order []int, load float64, minK int) (Selection, error) {
	best := Selection{Power: math.Inf(1)}
	var sumA, sumB float64
	for k := 1; k <= len(order); k++ {
		i := order[k-1]
		sumA += r.Pairs[i].A
		sumB += r.Pairs[i].B
		if k < minK {
			continue
		}
		t := (sumA - load) / sumB
		power := float64(k)*r.W2 - r.Rho*t + r.Theta(load)
		if power < best.Power {
			subset := append([]int(nil), order[:k]...)
			sort.Ints(subset)
			best = Selection{Subset: subset, T: t, Power: power}
		}
	}
	if math.IsInf(best.Power, 1) {
		return Selection{}, fmt.Errorf("%w: no prefix of size ≥ %d", ErrInfeasible, minK)
	}
	return best, nil
}
