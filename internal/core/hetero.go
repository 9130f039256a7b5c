package core

import (
	"errors"
	"fmt"
	"sort"

	"coolopt/internal/units"
)

// This file generalizes the closed form to heterogeneous hardware — the
// extension the paper names ("future extensions can delve into details
// such as separating CPU and memory consumption"; mixed machine
// generations are the common practical case). Each machine carries its
// own power model P_i = w1_i·L_i + w2_i. The Lagrangian stationarity
// conditions become
//
//	∂G/∂L_i:  w1_i − λ + µ_i·β_i·w1_i = 0  ⇒  µ_i = (λ − w1_i)/(β_i·w1_i)
//	∂G/∂T_ac: Σ µ_i·α_i = c·f_ac,
//
// so λ = (c·f_ac + Σ α_i/β_i) / Σ α_i/(w1_i·β_i) over the temperature-
// tight set. Machines with w1_i ≥ λ have µ_i ≤ 0: their energy per unit
// of work exceeds the marginal system cost, so the optimum parks them at
// zero load with slack temperature. Solving therefore iterates an active
// set: assume everyone tight, compute λ, evict machines with µ_i ≤ 0 or
// negative loads, repeat — convex, so the iteration terminates at the
// global optimum (cross-checked against a derivative-free solver in the
// tests).

// HeteroMachine is one machine of a mixed-hardware room.
type HeteroMachine struct {
	// W1 and W2 are this machine's power model (Eq. 9, per machine).
	W1 float64 `json:"w1"`
	W2 float64 `json:"w2"`
	// Thermal coefficients as in MachineProfile.
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
	Gamma float64 `json:"gamma"`
}

// HeteroProfile is the mixed-hardware analogue of Profile.
type HeteroProfile struct {
	CoolFactor float64         `json:"coolFactor"`
	SetPointC  float64         `json:"setPointC"`
	TMaxC      float64         `json:"tMaxC"`
	TAcMinC    float64         `json:"tAcMinC"`
	TAcMaxC    float64         `json:"tAcMaxC"`
	Machines   []HeteroMachine `json:"machines"`
}

// Validate checks the profile.
func (hp *HeteroProfile) Validate() error {
	if hp.CoolFactor <= 0 {
		return fmt.Errorf("core: cool factor = %v, must be positive", hp.CoolFactor)
	}
	if hp.TAcMinC >= hp.TAcMaxC {
		return fmt.Errorf("core: supply bounds [%v, %v] invalid", hp.TAcMinC, hp.TAcMaxC)
	}
	if len(hp.Machines) == 0 {
		return errors.New("core: no machines in hetero profile")
	}
	for i, m := range hp.Machines {
		switch {
		case m.W1 <= 0:
			return fmt.Errorf("core: machine %d w1 = %v, must be positive", i, m.W1)
		case m.W2 < 0:
			return fmt.Errorf("core: machine %d w2 = %v, must be non-negative", i, m.W2)
		case m.Alpha <= 0:
			return fmt.Errorf("core: machine %d alpha = %v, must be positive", i, m.Alpha)
		case m.Beta <= 0:
			return fmt.Errorf("core: machine %d beta = %v, must be positive", i, m.Beta)
		}
		if hp.K(i) <= 0 {
			return fmt.Errorf("core: machine %d infeasible: K = %v ≤ 0", i, hp.K(i))
		}
	}
	return nil
}

// Size returns the number of machines.
func (hp *HeteroProfile) Size() int { return len(hp.Machines) }

// K is the heterogeneous analogue of Eq. 19:
// K_i = (T_max − β_i·w2_i − γ_i)/(β_i·w1_i).
func (hp *HeteroProfile) K(i int) float64 {
	m := hp.Machines[i]
	return (hp.TMaxC - m.Beta*m.W2 - m.Gamma) / (m.Beta * m.W1)
}

// ratio is r_i = α_i/(w1_i·β_i), the coefficient tying T_ac to L_i on the
// temperature boundary.
func (hp *HeteroProfile) ratio(i int) float64 {
	m := hp.Machines[i]
	return m.Alpha / (m.W1 * m.Beta)
}

// ServerPower returns machine i's modeled power at a utilization.
func (hp *HeteroProfile) ServerPower(i int, load float64) units.Watts {
	m := hp.Machines[i]
	return units.Watts(m.W1*load + m.W2)
}

// CPUTemp returns machine i's modeled steady temperature.
func (hp *HeteroProfile) CPUTemp(i int, load float64, tAc units.Celsius) units.Celsius {
	m := hp.Machines[i]
	return units.Alpha(m.Alpha).Times(tAc) +
		units.BetaCPerW(m.Beta).Times(hp.ServerPower(i, load)) +
		units.Celsius(m.Gamma)
}

// CoolingPower is Eq. 10.
func (hp *HeteroProfile) CoolingPower(tAc units.Celsius) units.Watts {
	pw := hp.CoolFactor * (hp.SetPointC - float64(tAc))
	if pw < 0 {
		return 0
	}
	return units.Watts(pw)
}

// PlanPower evaluates a plan under the heterogeneous model.
func (hp *HeteroProfile) PlanPower(pl *Plan) units.Watts {
	total := hp.CoolingPower(pl.TAcC)
	for _, i := range pl.On {
		total += hp.ServerPower(i, pl.Loads[i])
	}
	return total
}

// Solve computes the energy-optimal load split over the on set for a
// mixed-hardware room.
//
// Structure: for a fixed supply temperature T the problem is a linear
// program — serve the load on the cheapest Watts-per-work machines first
// (ascending w1), each machine capped by its thermal headroom
// c_i(T) = min(1, K_i − r_i·T) — and the total cost is convex in T (the
// caps are affine in T and an LP value is convex in its right-hand side).
// Solve therefore trisects T over the feasible range and greedily fills
// at each probe. In the homogeneous interior case the optimum sits where
// the caps exactly absorb the load, every machine lands on its cap (CPU
// at T_max), and the result coincides with the paper's closed form.
func (hp *HeteroProfile) Solve(on []int, totalLoad float64) (*Plan, error) {
	if err := checkOnSet(on, hp.Size()); err != nil {
		return nil, err
	}
	if totalLoad < 0 {
		return nil, fmt.Errorf("core: negative total load %v", totalLoad)
	}
	if totalLoad > float64(len(on))+1e-9 {
		return nil, fmt.Errorf("%w: load %v exceeds capacity of %d machines", ErrInfeasible, totalLoad, len(on))
	}

	cap := func(i int, t float64) float64 {
		c := hp.K(i) - hp.ratio(i)*t
		if c < 0 {
			return 0
		}
		if c > 1 {
			return 1
		}
		return c
	}
	capacityAt := func(t float64) float64 {
		sum := 0.0
		for _, i := range on {
			sum += cap(i, t)
		}
		return sum
	}

	// Feasible supply range: capacity is non-increasing in T, so find
	// the highest T that still carries the load.
	if capacityAt(hp.TAcMinC) < totalLoad-1e-12 {
		return nil, fmt.Errorf("%w: load %v exceeds thermal capacity even at the coldest supply", ErrInfeasible, totalLoad)
	}
	lo, hi := hp.TAcMinC, hp.TAcMaxC
	if capacityAt(hi) < totalLoad {
		for iter := 0; iter < 100; iter++ {
			mid := (lo + hi) / 2
			if capacityAt(mid) >= totalLoad {
				lo = mid
			} else {
				hi = mid
			}
		}
		hi = lo // highest feasible supply
	}

	// Cheapest-first fill order: ascending w1, stable by index.
	order := append([]int(nil), on...)
	sort.SliceStable(order, func(a, b int) bool {
		return hp.Machines[order[a]].W1 < hp.Machines[order[b]].W1
	})
	fill := func(t float64) ([]float64, float64) {
		loads := make([]float64, hp.Size())
		remaining := totalLoad
		cost := float64(hp.CoolingPower(units.Celsius(t)))
		for _, i := range order {
			c := cap(i, t)
			l := remaining
			if l > c {
				l = c
			}
			loads[i] = l
			remaining -= l
			cost += float64(hp.ServerPower(i, l))
		}
		return loads, cost
	}

	// Trisect the convex cost over [TAcMin, highest feasible T].
	a, b := hp.TAcMinC, hi
	for iter := 0; iter < 200 && b-a > 1e-10; iter++ {
		m1 := a + (b-a)/3
		m2 := b - (b-a)/3
		_, c1 := fill(m1)
		_, c2 := fill(m2)
		if c1 <= c2 {
			b = m2
		} else {
			a = m1
		}
	}
	tAc := (a + b) / 2
	loads, _ := fill(tAc)

	onCopy := append([]int(nil), on...)
	sort.Ints(onCopy)
	// Clamped means the temperature constraints are not all tight: the
	// room has spare thermal capacity at the chosen supply.
	clamped := capacityAt(tAc) > totalLoad+1e-9
	return &Plan{On: onCopy, Loads: loads, TAcC: units.Celsius(tAc), Clamped: clamped}, nil
}

// Homogeneous converts a Profile into the heterogeneous representation
// (every machine sharing w1/w2), for cross-checking the two solvers.
func (p *Profile) Homogeneous() *HeteroProfile {
	machines := make([]HeteroMachine, p.Size())
	for i, m := range p.Machines {
		machines[i] = HeteroMachine{W1: p.W1, W2: p.W2, Alpha: m.Alpha, Beta: m.Beta, Gamma: m.Gamma}
	}
	return &HeteroProfile{
		CoolFactor: p.CoolFactor,
		SetPointC:  p.SetPointC,
		TMaxC:      p.TMaxC,
		TAcMinC:    p.TAcMinC,
		TAcMaxC:    p.TAcMaxC,
		Machines:   machines,
	}
}
