package main

import (
	"errors"
	"fmt"
	"math"

	"coolopt/internal/core"
	"coolopt/internal/mathx"
)

// The checks in this file recompute the paper's model from the room's
// raw coefficients. They call no method of core.Profile, so a fault in
// the program's own arithmetic cannot hide itself.
//
//	Eq. 8   T_i = α_i·T_ac + β_i·P_i + γ_i
//	Eq. 9   P_i = W1·L_i + W2
//	Eq. 10  P_ac = c·f_ac·(T_SP − T_ac), floored at 0
//	Eq. 19  K_i = (T_max − β_i·W2 − γ_i)/(β_i·W1)
//	Eq. 21  T_ac = W1·(Σ K_i − L)/Σ(α_i/β_i)
//	Eq. 22  L_i = K_i − (Σ K_j − L)·(α_i/β_i)/Σ(α_j/β_j)

// Tolerances of the checks. Temperatures and loads come out of the same
// formulas evaluated in a different order, so they agree to rounding.
const (
	tempTol = 1e-6 // °C of overshoot allowed above T_max
	boxTol  = 1e-9 // utilization allowed outside [0, 1]
	sumTol  = 1e-6 // utilization units between ΣL_i and the demand
	formTol = 1e-9 // relative difference from the closed form
)

// kAB returns machine i's K_i (Eq. 19) and α_i/β_i.
func kAB(p *core.Profile, i int) (k, ab float64) {
	m := p.Machines[i]
	return (p.TMaxC - m.Beta*p.W2 - m.Gamma) / (m.Beta * p.W1), m.Alpha / m.Beta
}

// cpuTemp is Eq. 8 with Eq. 9 substituted for P_i.
func cpuTemp(p *core.Profile, i int, load, tAc float64) float64 {
	m := p.Machines[i]
	return m.Alpha*tAc + m.Beta*(p.W1*load+p.W2) + m.Gamma
}

// planPowerW is Eq. 9 summed over the on machines plus Eq. 10 at the
// plan's supply temperature, in Watts.
func planPowerW(p *core.Profile, on []int, loads []float64, tAc float64) float64 {
	total := p.CoolFactor * (p.SetPointC - tAc)
	if total < 0 {
		total = 0
	}
	for _, i := range on {
		total += p.W1*loads[i] + p.W2
	}
	return total
}

// closedForm evaluates Eqs. 21–22 over the on set at the given load and
// returns the supply temperature and the loads (indexed by machine ID).
func closedForm(p *core.Profile, on []int, load float64) (float64, []float64) {
	k := make([]float64, len(on))
	ab := make([]float64, len(on))
	var sumK, sumAB float64
	for j, i := range on {
		k[j], ab[j] = kAB(p, i)
		sumK += k[j]
		sumAB += ab[j]
	}
	loads := make([]float64, len(p.Machines))
	for j, i := range on {
		loads[i] = k[j] - (sumK-load)*ab[j]/sumAB
	}
	return p.W1 * (sumK - load) / sumAB, loads
}

// planCheck is the outcome of checkPlan: loads reports that the plan's
// free machines were compared with Eq. 22, supply that its T_ac was
// compared with Eq. 21 (no machine pinned at full load and no clamp at
// the cold end of the CRAC range).
type planCheck struct {
	loads, supply bool
}

// checkPlan verifies a served plan against the model: every on machine
// at or below T_max (Eq. 8), every load in [0, 1], off and avoided
// machines carrying nothing, T_ac inside the CRAC range, ΣL_i within
// loadTol of want, and the closed form (Eqs. 21–22) on the machines no
// load bound holds.
func checkPlan(p *core.Profile, pl *core.Plan, want, loadTol float64, avoid []int) (planCheck, error) {
	n := len(p.Machines)
	if pl == nil {
		return planCheck{}, errors.New("no plan")
	}
	if len(pl.Loads) != n {
		return planCheck{}, fmt.Errorf("plan has %d loads for %d machines", len(pl.Loads), n)
	}
	if len(pl.On) == 0 {
		return planCheck{}, errors.New("plan powers no machine")
	}
	on := make([]bool, n)
	for j, i := range pl.On {
		if i < 0 || i >= n {
			return planCheck{}, fmt.Errorf("on machine %d outside the room", i)
		}
		if j > 0 && i <= pl.On[j-1] {
			return planCheck{}, fmt.Errorf("on set not strictly ascending at %d", i)
		}
		on[i] = true
	}
	for _, i := range avoid {
		if on[i] {
			return planCheck{}, fmt.Errorf("avoided machine %d is on", i)
		}
	}
	tAc := float64(pl.TAcC)
	if tAc < p.TAcMinC-boxTol || tAc > p.TAcMaxC+boxTol {
		return planCheck{}, fmt.Errorf("T_ac %.6f °C outside the CRAC range [%v, %v]", tAc, p.TAcMinC, p.TAcMaxC)
	}
	var sum float64
	for i, l := range pl.Loads {
		if !on[i] {
			if l != 0 {
				return planCheck{}, fmt.Errorf("off machine %d carries load %v", i, l)
			}
			continue
		}
		if l < -boxTol || l > 1+boxTol {
			return planCheck{}, fmt.Errorf("machine %d load %v outside [0, 1]", i, l)
		}
		if t := cpuTemp(p, i, l, tAc); t > p.TMaxC+tempTol {
			return planCheck{}, fmt.Errorf("machine %d at %.6f °C exceeds T_max %v °C", i, t, p.TMaxC)
		}
		sum += l
	}
	if math.Abs(sum-want) > loadTol {
		return planCheck{}, fmt.Errorf("plan carries %.9f units, want %.9f ± %g", sum, want, loadTol)
	}

	// SolveBounded pins the machines that the box 0 ≤ L_i ≤ 1 pushes out
	// and solves Eqs. 21–22 over the rest with the residual load, so the
	// free machines' loads must equal Eq. 22 over the free set. T_ac may
	// sit below Eq. 21 (the actuator's warm end, or a machine pinned at
	// full load needing colder air) but never above it.
	var free []int
	residual, full := sum, false
	for _, i := range pl.On {
		switch l := pl.Loads[i]; {
		case l <= boxTol:
		case l >= 1-boxTol:
			residual -= l
			full = true
		default:
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return planCheck{}, nil
	}
	formT, formL := closedForm(p, free, residual)
	for _, i := range free {
		if !near(pl.Loads[i], formL[i]) {
			return planCheck{}, fmt.Errorf("machine %d load %.12f, Eq. 22 over the %d free machines gives %.12f", i, pl.Loads[i], len(free), formL[i])
		}
	}
	expT := math.Min(formT, p.TAcMaxC)
	if tAc > expT+formTol*math.Max(1, math.Abs(expT)) {
		return planCheck{}, fmt.Errorf("T_ac %.12f °C is warmer than Eq. 21 allows (%.12f °C)", tAc, expT)
	}
	c := planCheck{loads: true}
	if !full && formT >= p.TAcMinC {
		if !near(tAc, expT) {
			return planCheck{}, fmt.Errorf("T_ac %.12f °C, Eq. 21 gives %.12f °C", tAc, expT)
		}
		c.supply = true
	}
	return c, nil
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= formTol*math.Max(1, math.Abs(b))
}

// consolidationNoWorse is the #8 ≤ #6 property: the paper's solution
// searches every on set, all-on included, so at the same demand it may
// never draw more power than the all-on optimum. Both powers come from
// planPowerW, not from the program.
func consolidationNoWorse(p *core.Profile, cons, allOn *core.Plan) (excessW float64, ok bool) {
	wc := planPowerW(p, cons.On, cons.Loads, float64(cons.TAcC))
	wa := planPowerW(p, allOn.On, allOn.Loads, float64(allOn.TAcC))
	return wc - wa, wc <= wa*(1+1e-12)
}

// samePlan reports whether two plans are bit-identical: the same on set,
// the same load bits on every machine and the same T_ac bits.
func samePlan(a, b *core.Plan) error {
	if len(a.On) != len(b.On) || len(a.Loads) != len(b.Loads) {
		return fmt.Errorf("shapes differ: %d/%d on, %d/%d loads", len(a.On), len(b.On), len(a.Loads), len(b.Loads))
	}
	for j := range a.On {
		if a.On[j] != b.On[j] {
			return fmt.Errorf("on sets differ at position %d: %d vs %d", j, a.On[j], b.On[j])
		}
	}
	for i := range a.Loads {
		if !mathx.Same(a.Loads[i], b.Loads[i]) {
			return fmt.Errorf("machine %d load %v vs %v", i, a.Loads[i], b.Loads[i])
		}
	}
	if !mathx.Same(float64(a.TAcC), float64(b.TAcC)) {
		return fmt.Errorf("T_ac %v vs %v", a.TAcC, b.TAcC)
	}
	return nil
}

// subsetSums returns Σ K_i and Σ α_i/β_i over a subset, checking that it
// is non-empty, strictly ascending and inside the room.
func subsetSums(p *core.Profile, subset []int) (sumK, sumAB float64, err error) {
	if len(subset) == 0 {
		return 0, 0, errors.New("empty subset")
	}
	for j, i := range subset {
		if i < 0 || i >= len(p.Machines) || (j > 0 && i <= subset[j-1]) {
			return 0, 0, fmt.Errorf("subset not strictly ascending inside the room at %d", i)
		}
		k, ab := kAB(p, i)
		sumK += k
		sumAB += ab
	}
	return sumK, sumAB, nil
}

// subsetPowerW is the paper's Eq. 23 for a k-subset at particle time t
// serving load: k·W2 − c·f_ac·W1·t + c·f_ac·T_SP + W1·L.
func subsetPowerW(p *core.Profile, k int, t, load float64) float64 {
	return float64(k)*p.W2 - p.CoolFactor*p.W1*t + p.CoolFactor*p.SetPointC + p.W1*load
}

// checkConsolidation verifies a consolidation answer: at least minK
// machines, its t-value t_S = (Σ K − L)/Σ(α/β) and its Eq. 23 power.
func checkConsolidation(p *core.Profile, subset []int, t, powerW, load float64, minK int) error {
	sumK, sumAB, err := subsetSums(p, subset)
	if err != nil {
		return err
	}
	if len(subset) < minK {
		return fmt.Errorf("%d machines, want at least %d", len(subset), minK)
	}
	if want := (sumK - load) / sumAB; !near(t, want) {
		return fmt.Errorf("t = %.12f, the subset gives %.12f", t, want)
	}
	if want := subsetPowerW(p, len(subset), t, load); !near(powerW, want) {
		return fmt.Errorf("power %.6f W, Eq. 23 gives %.6f W", powerW, want)
	}
	return nil
}

// checkMaxLoad verifies a budget answer: the load fits on the subset,
// t is the subset's t-value at that load, and Eq. 23 at (subset, load)
// stays within the budget.
func checkMaxLoad(p *core.Profile, subset []int, load, t, budgetW float64) error {
	sumK, sumAB, err := subsetSums(p, subset)
	if err != nil {
		return err
	}
	if load < 0 || load > float64(len(subset))+boxTol {
		return fmt.Errorf("load %v does not fit on %d machines", load, len(subset))
	}
	if want := (sumK - load) / sumAB; !near(t, want) {
		return fmt.Errorf("t = %.12f, the subset gives %.12f", t, want)
	}
	if w := subsetPowerW(p, len(subset), t, load); w > budgetW*(1+formTol) {
		return fmt.Errorf("Eq. 23 gives %.6f W over the %.6f W budget", w, budgetW)
	}
	return nil
}

// sameCoeffs reports whether two machines' Eq. 8 coefficients are
// bit-identical.
func sameCoeffs(a, b core.MachineProfile) bool {
	return mathx.Same(a.Alpha, b.Alpha) && mathx.Same(a.Beta, b.Beta) && mathx.Same(a.Gamma, b.Gamma)
}
