package core

import "fmt"

// Multipliers holds the Lagrange multipliers of the optimization at the
// closed-form solution (paper §III-A): Lambda for the load-balance
// constraint and Mu[i] for machine i's temperature constraint.
type Multipliers struct {
	// Lambda is λ = c·f_ac·w1 / Σ(α_i/β_i) (Eq. 16), in Watts per unit
	// load — the marginal cost of one more unit of demand.
	Lambda float64
	// Mu is indexed by machine ID (zero for machines outside the on
	// set); µ_i = λ/(β_i·w1) (Eq. 15), in Watts per °C — the marginal
	// cost of tightening machine i's temperature limit.
	Mu []float64
}

// KKT returns the Lagrange multipliers for the given on set. The paper's
// optimality argument rests on every multiplier being strictly positive
// (hence every constraint active); Validate as well as the tests check
// that property.
func (p *Profile) KKT(on []int) (Multipliers, error) {
	if err := checkOnSet(on, p.Size()); err != nil {
		return Multipliers{}, err
	}
	var sumAB float64
	for _, i := range on {
		sumAB += p.RatioAB(i)
	}
	lambda := p.CoolFactor * p.W1 / sumAB // Eq. 16 with c·f_ac = CoolFactor
	mu := make([]float64, p.Size())
	for _, i := range on {
		mu[i] = lambda / (p.Machines[i].Beta * p.W1) // Eq. 15
	}
	m := Multipliers{Lambda: lambda, Mu: mu}
	if err := m.validate(on); err != nil {
		return Multipliers{}, err
	}
	return m, nil
}

func (m Multipliers) validate(on []int) error {
	if m.Lambda <= 0 {
		return fmt.Errorf("core: λ = %v not strictly positive", m.Lambda)
	}
	for _, i := range on {
		if m.Mu[i] <= 0 {
			return fmt.Errorf("core: µ[%d] = %v not strictly positive", i, m.Mu[i])
		}
	}
	return nil
}

// StationarityResidual evaluates the KKT stationarity conditions at the
// closed-form solution and returns the largest absolute residual — zero
// (up to floating point) certifies the solution satisfies Eqs. 13–14:
//
//	∂G/∂T_ac = −c·f_ac + Σ µ_i·α_i            (Eq. 13)
//	∂G/∂L_i  =  λ − µ_i·β_i·w1  (+ w1 from the server-power term,
//	            cancelled against the load constraint's sign convention
//	            as in the paper's Lagrangian)                 (Eq. 14)
func (p *Profile) StationarityResidual(on []int) (float64, error) {
	m, err := p.KKT(on)
	if err != nil {
		return 0, err
	}
	// Eq. 13 residual.
	res13 := -p.CoolFactor
	for _, i := range on {
		res13 += m.Mu[i] * p.Machines[i].Alpha
	}
	maxRes := abs(res13)
	// Eq. 14 residual per machine.
	for _, i := range on {
		if r := abs(m.Lambda - m.Mu[i]*p.Machines[i].Beta*p.W1); r > maxRes {
			maxRes = r
		}
	}
	return maxRes, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
