package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"coolopt/internal/units"
)

// Plan is an executable control decision: which machines run, at what
// utilization, and what supply temperature the CRAC should produce.
type Plan struct {
	// On lists the powered-on machine IDs in ascending order.
	On []int
	// Loads is indexed by machine ID; machines that are off have load 0.
	Loads []float64
	// TAcC is the commanded CRAC supply temperature in °C.
	TAcC units.Celsius
	// Clamped reports that the unconstrained optimum asked for a supply
	// temperature outside the actuation bounds and TAcC was clamped.
	Clamped bool
}

// TotalLoad returns Σ L_i.
func (pl *Plan) TotalLoad() float64 {
	sum := 0.0
	for _, l := range pl.Loads {
		sum += l
	}
	return sum
}

// ErrInfeasible is returned when no plan can satisfy the constraints.
var ErrInfeasible = errors.New("core: infeasible")

// Solve computes the paper's closed-form optimal load distribution
// (Eqs. 21–22) over the given set of powered-on machines for total load
// totalLoad (in machine-utilization units, so a 20-machine rack at 50 %
// means totalLoad = 10).
//
// The returned plan puts every powered-on machine exactly at T_max — the
// property that makes the solution optimal under the model. Solve is
// faithful to the paper: it does not enforce 0 ≤ L_i ≤ 1 (see SolveBounded
// for the repaired variant) but it does clamp T_ac into the actuation
// bounds, recomputing nothing else, and flags the clamp.
func (p *Profile) Solve(on []int, totalLoad float64) (*Plan, error) {
	if err := checkOnSet(on, p.Size()); err != nil {
		return nil, err
	}
	if totalLoad < 0 {
		return nil, fmt.Errorf("core: negative total load %v", totalLoad)
	}

	loads := make([]float64, p.Size())
	tAc, clamped, err := p.closedForm(on, totalLoad, loads)
	if err != nil {
		return nil, err
	}
	onCopy := append([]int(nil), on...)
	sort.Ints(onCopy)
	return &Plan{On: onCopy, Loads: loads, TAcC: units.Celsius(tAc), Clamped: clamped}, nil
}

// closedForm is Solve's arithmetic without its checks or allocations: it
// writes Eq. 22's load for every machine of on into loads (other entries
// are left as they are) and returns Eq. 21's supply temperature, clamped
// to the actuation maximum, and whether it was clamped.
func (p *Profile) closedForm(on []int, totalLoad float64, loads []float64) (float64, bool, error) {
	// Σ K_i and Σ α_i/β_i over the on set.
	var sumK, sumAB float64
	for _, i := range on {
		sumK += p.K(i)
		sumAB += p.RatioAB(i)
	}

	// Eq. 21: T_ac = w1·(Σ K_i − L)/Σ(α_i/β_i).
	tAc := p.W1 * (sumK - totalLoad) / sumAB
	clamped := false
	if tAc > p.TAcMaxC {
		tAc = p.TAcMaxC
		clamped = true
	}
	if tAc < p.TAcMinC {
		// Even the coldest supply cannot keep every CPU at T_max
		// with this load on this set.
		return 0, false, fmt.Errorf("%w: optimal supply %.2f °C below actuator minimum %.2f °C",
			ErrInfeasible, p.W1*(sumK-totalLoad)/sumAB, p.TAcMinC)
	}

	surplus := sumK - totalLoad
	for _, i := range on {
		// Eq. 22: L_i = K_i − (Σ K_j − L)·(α_i/β_i)/Σ(α_j/β_j).
		loads[i] = p.K(i) - surplus*p.RatioAB(i)/sumAB
	}
	return tAc, clamped, nil
}

// SolveBounded runs Solve and then repairs any allocation that violates
// the physical box constraints 0 ≤ L_i ≤ 1, which the paper's closed form
// does not enforce. Machines pushed below 0 are pinned at 0, machines
// pushed above 1 are pinned at 1, and the closed form is re-solved over
// the remaining free machines with the residual load — the standard
// active-set treatment of box constraints on a problem whose KKT system is
// the paper's. Pinned-at-zero machines remain powered on (deciding to turn
// them off is consolidation's job).
func (p *Profile) SolveBounded(on []int, totalLoad float64) (*Plan, error) {
	plan, _, err := p.solveBounded(on, totalLoad)
	return plan, err
}

// solveBounded is SolveBounded that also reports whether the box repair
// pinned any machine at 0 or 1.
func (p *Profile) solveBounded(on []int, totalLoad float64) (*Plan, bool, error) {
	if err := checkOnSet(on, p.Size()); err != nil {
		return nil, false, err
	}
	if totalLoad > float64(len(on))+1e-9 {
		return nil, false, fmt.Errorf("%w: load %v exceeds capacity of %d machines", ErrInfeasible, totalLoad, len(on))
	}

	// The active set: pinned marks the machines held at a bound, whose
	// load is written once. One loads slice serves every closed-form
	// round, which rewrites only the free machines (entries outside on
	// stay 0). rest is the load the pinned machines leave to the free.
	pinned := make([]bool, p.Size())
	loads := make([]float64, p.Size())
	rest := totalLoad
	free := append([]int(nil), on...)
	for iter := 0; iter <= len(on); iter++ {
		if len(free) == 0 {
			break
		}
		residual := rest
		if residual < 0 {
			residual = 0
		}
		tAc, clamped, err := p.closedForm(free, residual, loads)
		if err != nil {
			return nil, false, err
		}
		violated := false
		for _, i := range free {
			if loads[i] < -1e-12 {
				loads[i], pinned[i] = 0, true
				violated = true
			} else if loads[i] > 1+1e-12 {
				loads[i], pinned[i] = 1, true
				rest--
				violated = true
			}
		}
		if !violated {
			plan := &Plan{On: append([]int(nil), on...), Loads: loads, TAcC: units.Celsius(tAc), Clamped: clamped}
			sort.Ints(plan.On)
			// Pinned machines may sit above T_max at the free-set
			// T_ac; lower T_ac to the max safe value if needed.
			safe, err := p.MaxSafeTAc(plan.On, plan.Loads)
			if err != nil {
				return nil, false, fmt.Errorf("%w: %v", ErrInfeasible, err)
			}
			if safe < plan.TAcC {
				plan.TAcC = safe
				plan.Clamped = true
			}
			return plan, iter > 0, nil
		}
		next := free[:0]
		for _, i := range free {
			if !pinned[i] {
				next = append(next, i)
			}
		}
		free = next
	}

	// Everything pinned: feasible only if the pins absorb the load.
	var sum float64
	for _, i := range on {
		sum += loads[i]
	}
	if math.Abs(sum-totalLoad) > 1e-6 {
		return nil, false, fmt.Errorf("%w: box constraints cannot absorb load %v", ErrInfeasible, totalLoad)
	}
	onCopy := append([]int(nil), on...)
	sort.Ints(onCopy)
	safe, err := p.MaxSafeTAc(onCopy, loads)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	return &Plan{On: onCopy, Loads: loads, TAcC: safe, Clamped: true}, true, nil
}

// PlanAllOn returns the minimum-power plan that keeps every machine
// powered on (scenarios #4–#6 in the paper's evaluation tree), validated
// against the model.
func (p *Profile) PlanAllOn(load float64) (*Plan, error) {
	plan, err := p.SolveBounded(allIDs(p.Size()), load)
	if err != nil {
		return nil, err
	}
	if err := p.ValidatePlan(plan, load, 1e-6); err != nil {
		return nil, fmt.Errorf("core: optimizer produced invalid plan: %w", err)
	}
	return plan, nil
}

// PlanOver consolidates over prefixes of the given machine pool: the
// closed form is solved for every on-count k ≥ ⌈load⌉ over pool[:k] and
// the cheapest feasible plan under the model wins. It is O(|pool|²) and
// not the Eq. 23 optimum over the pool, so nothing serves from it: it is
// the flat reference degraded plans are measured against (PlanAvoiding
// over the survivors is the planner). Returns nil when no prefix is
// feasible.
func (p *Profile) PlanOver(pool []int, load float64) *Plan {
	var (
		best  *Plan
		bestW float64
		minOn = int(math.Ceil(load - 1e-9))
	)
	if minOn < 1 {
		minOn = 1
	}
	for k := minOn; k <= len(pool); k++ {
		plan, err := p.SolveBounded(pool[:k], load)
		if err != nil {
			continue
		}
		w := float64(p.PlanPower(plan))
		if best == nil || w < bestW {
			best, bestW = plan, w
		}
	}
	return best
}

// PlanPower returns the plan's total power under the paper's model
// (Eq. 23): CRAC power at the plan's supply temperature plus Σ(W1·L_i+W2)
// over the powered-on machines.
func (p *Profile) PlanPower(pl *Plan) units.Watts {
	total := p.CoolingPower(pl.TAcC)
	for _, i := range pl.On {
		total += p.ServerPower(pl.Loads[i])
	}
	return total
}

// ValidatePlan checks a plan against the model: on-set indices in range
// and distinct, loads within [0, 1], the load constraint met, and every
// powered-on machine at or below T_max at the plan's supply temperature.
// slack is the allowed temperature overshoot in °C (0 for strict).
func (p *Profile) ValidatePlan(pl *Plan, totalLoad, slack float64) error {
	if len(pl.Loads) != p.Size() {
		return fmt.Errorf("core: plan has %d loads for %d machines", len(pl.Loads), p.Size())
	}
	onSet, err := onMask(pl.On, p.Size())
	if err != nil {
		return err
	}
	sum := 0.0
	for i, l := range pl.Loads {
		if !onSet[i] {
			if l != 0 {
				return fmt.Errorf("core: machine %d is off but has load %v", i, l)
			}
			continue
		}
		if l < -1e-9 || l > 1+1e-9 {
			return fmt.Errorf("core: machine %d load %v outside [0, 1]", i, l)
		}
		if temp := float64(p.CPUTemp(i, l, pl.TAcC)); temp > p.TMaxC+slack {
			return fmt.Errorf("core: machine %d at %.2f °C exceeds T_max %.2f °C", i, temp, p.TMaxC)
		}
		sum += l
	}
	if math.Abs(sum-totalLoad) > 1e-6 {
		return fmt.Errorf("core: plan carries load %v, want %v", sum, totalLoad)
	}
	return nil
}

// checkOnSet rejects an empty on set and any set onMask rejects.
func checkOnSet(on []int, n int) error {
	if len(on) == 0 {
		return errors.New("core: empty on set")
	}
	_, err := onMask(on, n)
	return err
}

// onMask marks the on set's machines in a mask of n, rejecting an index
// outside [0, n) and a duplicate index.
func onMask(on []int, n int) ([]bool, error) {
	mask := make([]bool, n)
	for _, i := range on {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("core: machine index %d out of range [0, %d)", i, n)
		}
		if mask[i] {
			return nil, fmt.Errorf("core: duplicate machine index %d", i)
		}
		mask[i] = true
	}
	return mask, nil
}
