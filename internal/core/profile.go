// Package core implements the paper's contribution: the closed-form
// energy-optimal load distribution across a set of powered-on machines
// (paper §III-A, Eqs. 19/21/22) and the guaranteed-optimal consolidation
// algorithms that pick which machines to power on (paper §III-B,
// Algorithms 1–2).
//
// The package operates purely on the paper's profiled model:
//
//	P_i      = W1·L_i + W2                    server power    (Eq. 9)
//	T_i^cpu  = α_i·T_ac + β_i·P_i + γ_i       CPU temperature (Eq. 8)
//	P_ac     = c·f_ac·(T_SP − T_ac)           cooling power   (Eq. 10)
//
// with load L_i expressed as a utilization fraction in [0, 1] and
// temperatures in °C. Where the coefficients come from (profiling a real
// or simulated rack) is the business of internal/profiling.
//
//coolopt:deterministic
package core

import (
	"errors"
	"fmt"
	"math"

	"coolopt/internal/units"
)

// MachineProfile holds the per-machine thermal coefficients of paper Eq. 8.
type MachineProfile struct {
	// Alpha is the dimensionless coefficient coupling the CRAC supply
	// temperature to this machine's CPU temperature.
	Alpha float64 `json:"alpha"`
	// Beta is the coefficient of machine power in K/W.
	Beta float64 `json:"beta"`
	// Gamma is the affine offset in °C.
	Gamma float64 `json:"gamma"`
}

// Validate checks physical plausibility of the coefficients. NaN fails
// every check.
func (m MachineProfile) Validate() error {
	if !(m.Alpha > 0) {
		return fmt.Errorf("core: alpha = %v, must be positive", m.Alpha)
	}
	if !(m.Beta > 0) {
		return fmt.Errorf("core: beta = %v, must be positive", m.Beta)
	}
	return nil
}

// Profile is everything the optimizer needs to know about a machine room:
// the shared power model, the cooling cost model, the constraint, and one
// thermal profile per machine.
type Profile struct {
	// W1 is the load-dependent power coefficient in Watts per unit
	// utilization; W2 is the idle power in Watts (Eq. 9). The paper's
	// machines are identical hardware, so these are cluster-wide.
	W1 float64 `json:"w1"`
	W2 float64 `json:"w2"`

	// CoolFactor is c·f_ac = c_air·f_ac/η in W/K: the Watts of cooling
	// power saved per °C the supply temperature is raised (Eq. 10).
	CoolFactor float64 `json:"coolFactor"`
	// SetPointC is the CRAC exhaust set point T_SP in °C, a constant of
	// the room in the paper's formulation.
	SetPointC float64 `json:"setPointC"`

	// TMaxC is the maximum allowed CPU temperature in °C.
	TMaxC float64 `json:"tMaxC"`
	// TAcMinC and TAcMaxC bound the achievable supply temperature in
	// °C. The paper leaves these implicit; Solve clamps into them.
	TAcMinC float64 `json:"tAcMinC"`
	TAcMaxC float64 `json:"tAcMaxC"`

	// Machines lists the per-machine thermal profiles; index is machine
	// ID.
	Machines []MachineProfile `json:"machines"`
}

// Validate checks the profile. Every check is written so that NaN
// fails it, and every room constant must be finite.
func (p *Profile) Validate() error {
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"W1", p.W1}, {"W2", p.W2}, {"cool factor", p.CoolFactor}, {"set point", p.SetPointC},
		{"T_max", p.TMaxC}, {"supply minimum", p.TAcMinC}, {"supply maximum", p.TAcMaxC},
	} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Errorf("core: %s = %v, must be finite", c.name, c.v)
		}
	}
	if !(p.W1 > 0) {
		return fmt.Errorf("core: W1 = %v, must be positive", p.W1)
	}
	if !(p.W2 >= 0) {
		return fmt.Errorf("core: W2 = %v, must be non-negative", p.W2)
	}
	if !(p.CoolFactor > 0) {
		return fmt.Errorf("core: cool factor = %v, must be positive", p.CoolFactor)
	}
	if !(p.TAcMinC < p.TAcMaxC) {
		return fmt.Errorf("core: supply bounds [%v, %v] invalid", p.TAcMinC, p.TAcMaxC)
	}
	if len(p.Machines) == 0 {
		return errors.New("core: no machines in profile")
	}
	for i := range p.Machines {
		if err := p.validateMachine(i); err != nil {
			return err
		}
	}
	return nil
}

// validateMachine checks machine i's coefficients and its Eq. 19
// feasibility K_i > 0 under the room's power model.
func (p *Profile) validateMachine(i int) error {
	if err := p.Machines[i].Validate(); err != nil {
		return fmt.Errorf("core: machine %d: %w", i, err)
	}
	if k := p.K(i); !(k > 0) {
		return fmt.Errorf("core: machine %d infeasible: K = %v ≤ 0 (cannot stay under T_max even idle)", i, k)
	}
	return nil
}

// Size returns the number of machines.
func (p *Profile) Size() int { return len(p.Machines) }

// K returns K_i = (T_max − β_i·W2 − γ_i)/(β_i·W1) from paper Eq. 19: the
// utilization machine i could sustain at T_ac = 0 °C while sitting exactly
// at T_max.
func (p *Profile) K(i int) float64 {
	m := p.Machines[i]
	return (p.TMaxC - m.Beta*p.W2 - m.Gamma) / (m.Beta * p.W1)
}

// RatioAB returns b_i = α_i/β_i in W/K, the per-machine cooling
// sensitivity used throughout §III.
func (p *Profile) RatioAB(i int) float64 {
	m := p.Machines[i]
	return m.Alpha / m.Beta
}

// LoadCap returns the utilization machine i can sustain at the given
// supply temperature while staying at or below T_max, clamped into the
// physical range: cap_i = clamp(K_i − (α_i/β_i)·T_ac/W1, 0, 1), paper
// Eq. 20. This is each machine's thermal slack — the currency degraded
// and safe-mode planners shed load in.
func (p *Profile) LoadCap(i int, tAc units.Celsius) float64 {
	c := p.K(i) - p.RatioAB(i)*float64(tAc)/p.W1
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

// CapacityAt sums the Eq. 20 load caps of the pooled machines at the
// given supply temperature: the total load the pool can carry without any
// CPU exceeding T_max.
func (p *Profile) CapacityAt(pool []int, tAc units.Celsius) float64 {
	var capacity float64
	for _, i := range pool {
		capacity += p.LoadCap(i, tAc)
	}
	return capacity
}

// ServerPower returns the modeled power of one machine at the given
// utilization (Eq. 9).
func (p *Profile) ServerPower(load float64) units.Watts {
	return units.Watts(p.W1*load + p.W2)
}

// CoolingPower returns the modeled CRAC power for a supply temperature
// (Eq. 10); it is floored at zero for supply temperatures above the set
// point.
func (p *Profile) CoolingPower(tAc units.Celsius) units.Watts {
	pw := p.CoolFactor * (p.SetPointC - float64(tAc))
	if pw < 0 {
		return 0
	}
	return units.Watts(pw)
}

// CPUTemp returns the modeled steady CPU temperature of machine i at the
// given utilization and supply temperature (Eq. 8).
func (p *Profile) CPUTemp(i int, load float64, tAc units.Celsius) units.Celsius {
	m := p.Machines[i]
	return units.Alpha(m.Alpha).Times(tAc) +
		units.BetaCPerW(m.Beta).Times(p.ServerPower(load)) +
		units.Celsius(m.Gamma)
}

// MaxSafeTAc returns the highest supply temperature (within the actuation
// bounds) at which every listed machine stays at or below T_max when
// running the given per-machine utilizations. This is how the baseline
// scenarios without our optimizer choose T_ac (paper §IV-B). The indices
// in on select machines; loads is indexed by machine ID.
func (p *Profile) MaxSafeTAc(on []int, loads []float64) (units.Celsius, error) {
	if len(loads) != p.Size() {
		return 0, fmt.Errorf("core: %d loads for %d machines", len(loads), p.Size())
	}
	if len(on) == 0 {
		return units.Celsius(p.TAcMaxC), nil
	}
	best := p.TAcMaxC
	for _, i := range on {
		if i < 0 || i >= p.Size() {
			return 0, fmt.Errorf("core: machine index %d out of range", i)
		}
		if limit := p.supplyLimit(i, loads[i]); limit < best {
			best = limit
		}
	}
	return p.safeSupply(best)
}

// MaxSafeTAcAllOn is MaxSafeTAc with every machine on at the same
// utilization, without materializing the index and load vectors.
func (p *Profile) MaxSafeTAcAllOn(load float64) (units.Celsius, error) {
	best := p.TAcMaxC
	for i := range p.Machines {
		if limit := p.supplyLimit(i, load); limit < best {
			best = limit
		}
	}
	return p.safeSupply(best)
}

// supplyLimit returns the warmest supply at which machine i stays at or
// below T_max under the given utilization:
// α_i·T_ac + β_i·P_i + γ_i ≤ T_max  ⇒  T_ac ≤ (T_max − β_i·P_i − γ_i)/α_i.
func (p *Profile) supplyLimit(i int, load float64) float64 {
	m := p.Machines[i]
	return (p.TMaxC - m.Beta*float64(p.ServerPower(load)) - m.Gamma) / m.Alpha
}

// safeSupply turns the tightest machine limit into MaxSafeTAc's answer:
// the limit itself, or an error below the actuation floor.
func (p *Profile) safeSupply(best float64) (units.Celsius, error) {
	if best < p.TAcMinC {
		return units.Celsius(p.TAcMinC), fmt.Errorf("core: no safe supply temperature within bounds (needs %v °C)", best)
	}
	return units.Celsius(best), nil
}
