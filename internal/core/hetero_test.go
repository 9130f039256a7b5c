package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"coolopt/internal/mathx"

	"coolopt/internal/units"
)

// testHeteroProfile mixes two hardware generations: efficient new
// machines and power-hungry old ones.
func testHeteroProfile() *HeteroProfile {
	return &HeteroProfile{
		CoolFactor: 70,
		SetPointC:  30,
		TMaxC:      58,
		TAcMinC:    8,
		TAcMaxC:    25,
		Machines: []HeteroMachine{
			{W1: 50, W2: 35, Alpha: 0.96, Beta: 0.44, Gamma: 1.2},
			{W1: 50, W2: 35, Alpha: 0.90, Beta: 0.45, Gamma: 3.0},
			{W1: 80, W2: 50, Alpha: 0.93, Beta: 0.40, Gamma: 2.1}, // old generation
			{W1: 80, W2: 50, Alpha: 0.85, Beta: 0.42, Gamma: 4.0}, // old generation
			{W1: 50, W2: 35, Alpha: 0.83, Beta: 0.47, Gamma: 5.1},
		},
	}
}

func TestHeteroValidate(t *testing.T) {
	if err := testHeteroProfile().Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*HeteroProfile)
	}{
		{name: "cool factor", mutate: func(h *HeteroProfile) { h.CoolFactor = 0 }},
		{name: "bounds", mutate: func(h *HeteroProfile) { h.TAcMinC, h.TAcMaxC = 25, 8 }},
		{name: "no machines", mutate: func(h *HeteroProfile) { h.Machines = nil }},
		{name: "bad w1", mutate: func(h *HeteroProfile) { h.Machines[0].W1 = 0 }},
		{name: "bad w2", mutate: func(h *HeteroProfile) { h.Machines[0].W2 = -1 }},
		{name: "bad alpha", mutate: func(h *HeteroProfile) { h.Machines[0].Alpha = 0 }},
		{name: "bad beta", mutate: func(h *HeteroProfile) { h.Machines[0].Beta = 0 }},
		{name: "infeasible K", mutate: func(h *HeteroProfile) { h.Machines[0].Gamma = 1000 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := testHeteroProfile()
			tt.mutate(h)
			if err := h.Validate(); err == nil {
				t.Fatal("invalid profile accepted")
			}
		})
	}
}

func TestHeteroMatchesHomogeneousSolver(t *testing.T) {
	// With identical w1/w2 everywhere, the heterogeneous solver must
	// reproduce the paper's closed form exactly.
	p := testProfile()
	hp := p.Homogeneous()
	on := []int{0, 1, 2, 3, 4, 5}
	const load = 5.0
	want, err := p.Solve(on, load)
	if err != nil {
		t.Fatal(err)
	}
	got, err := hp.Solve(on, load)
	if err != nil {
		t.Fatalf("hetero Solve: %v", err)
	}
	if !mathx.ApproxEqual(float64(got.TAcC), float64(want.TAcC), 1e-9) {
		t.Fatalf("T_ac: hetero %v vs homogeneous %v", got.TAcC, want.TAcC)
	}
	for i := range want.Loads {
		if !mathx.ApproxEqual(got.Loads[i], want.Loads[i], 1e-9) {
			t.Fatalf("load[%d]: hetero %v vs homogeneous %v", i, got.Loads[i], want.Loads[i])
		}
	}
}

func TestHeteroSolveBasicInvariants(t *testing.T) {
	hp := testHeteroProfile()
	on := []int{0, 1, 2, 3, 4}
	for _, load := range []float64{1.0, 2.5, 4.0} {
		plan, err := hp.Solve(on, load)
		if err != nil {
			t.Fatalf("Solve(%v): %v", load, err)
		}
		if !mathx.ApproxEqual(plan.TotalLoad(), load, 1e-9) {
			t.Fatalf("load %v: total %v", load, plan.TotalLoad())
		}
		for _, i := range on {
			if plan.Loads[i] < -1e-9 || plan.Loads[i] > 1+1e-9 {
				t.Fatalf("load %v: L[%d] = %v out of box", load, i, plan.Loads[i])
			}
			if temp := float64(hp.CPUTemp(i, plan.Loads[i], plan.TAcC)); temp > hp.TMaxC+1e-6 {
				t.Fatalf("load %v: machine %d at %v °C", load, i, temp)
			}
		}
	}
}

func TestHeteroParksInefficientMachines(t *testing.T) {
	// Make the old generation catastrophically inefficient: at light
	// load the optimum gives it nothing.
	hp := testHeteroProfile()
	hp.Machines[2].W1 = 400
	hp.Machines[3].W1 = 400
	plan, err := hp.Solve([]int{0, 1, 2, 3, 4}, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Loads[2] > 1e-9 || plan.Loads[3] > 1e-9 {
		t.Fatalf("inefficient machines loaded: %v", plan.Loads)
	}
}

func TestHeteroSolveInputValidation(t *testing.T) {
	hp := testHeteroProfile()
	if _, err := hp.Solve(nil, 1); err == nil {
		t.Fatal("empty on set accepted")
	}
	if _, err := hp.Solve([]int{0, 0}, 1); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if _, err := hp.Solve([]int{9}, 1); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := hp.Solve([]int{0}, -1); err == nil {
		t.Fatal("negative load accepted")
	}
	if _, err := hp.Solve([]int{0, 1}, 5); err == nil {
		t.Fatal("over-capacity load accepted")
	}
}

// heteroModelPower is the true objective with the best safe supply for an
// allocation, +Inf for an allocation no supply within the actuation
// bounds keeps under T_max (the tightest machine's limit lies below
// TAcMinC): such a plan breaks the constraint, so no search may count it.
func heteroModelPower(hp *HeteroProfile, on []int, loads []float64) float64 {
	tAc := hp.TAcMaxC
	for _, i := range on {
		m := hp.Machines[i]
		limit := (hp.TMaxC - m.Beta*float64(hp.ServerPower(i, loads[i])) - m.Gamma) / m.Alpha
		if limit < tAc {
			tAc = limit
		}
	}
	if tAc < hp.TAcMinC {
		return math.Inf(1)
	}
	total := hp.CoolingPower(units.Celsius(tAc))
	for _, i := range on {
		total += hp.ServerPower(i, loads[i])
	}
	return float64(total)
}

// heteroNumericOptimum runs box-constrained pairwise-exchange pattern
// search (loads stay in [0, 1]).
func heteroNumericOptimum(hp *HeteroProfile, on []int, load float64) []float64 {
	loads := make([]float64, hp.Size())
	for _, i := range on {
		loads[i] = load / float64(len(on))
	}
	best := heteroModelPower(hp, on, loads)
	for delta := load / 4; delta > 1e-9; {
		improved := false
		for _, i := range on {
			for _, j := range on {
				if i == j {
					continue
				}
				if loads[i]+delta > 1 || loads[j]-delta < 0 {
					continue
				}
				loads[i] += delta
				loads[j] -= delta
				if cand := heteroModelPower(hp, on, loads); cand < best-1e-12 {
					best = cand
					improved = true
				} else {
					loads[i] -= delta
					loads[j] += delta
				}
			}
		}
		if !improved {
			delta /= 2
		}
	}
	return loads
}

// TestHeteroMatchesNumericOptimum is the global-optimality cross-check
// for the mixed-hardware active-set solver.
func TestHeteroMatchesNumericOptimum(t *testing.T) {
	hp := testHeteroProfile()
	on := []int{0, 1, 2, 3, 4}
	for _, load := range []float64{1.2, 2.2, 3.4, 4.2} {
		plan, err := hp.Solve(on, load)
		if err != nil {
			t.Fatalf("Solve(%v): %v", load, err)
		}
		closed := heteroModelPower(hp, on, plan.Loads)
		numeric := heteroModelPower(hp, on, heteroNumericOptimum(hp, on, load))
		if closed > numeric+1e-4 {
			t.Fatalf("load %v: active-set %v W worse than numeric %v W", load, closed, numeric)
		}
	}
}

// heteroPropertyHolds draws one random mixed-hardware instance from seed
// and reports whether the active-set solution serves the load and is not
// beaten by the numeric solver by more than 1e-3 W. Infeasible instances
// hold trivially.
func heteroPropertyHolds(seed int64) bool {
	rng := mathx.NewRand(seed)
	n := 3 + rng.Intn(4)
	machines := make([]HeteroMachine, n)
	for i := range machines {
		machines[i] = HeteroMachine{
			W1:    rng.Uniform(40, 120),
			W2:    rng.Uniform(25, 55),
			Alpha: rng.Uniform(0.8, 1.0),
			Beta:  rng.Uniform(0.40, 0.50),
			Gamma: rng.Uniform(0.5, 6),
		}
	}
	hp := &HeteroProfile{
		CoolFactor: rng.Uniform(50, 150),
		SetPointC:  31,
		TMaxC:      58,
		TAcMinC:    5,
		TAcMaxC:    25,
		Machines:   machines,
	}
	if hp.Validate() != nil {
		return true
	}
	on := make([]int, n)
	for i := range on {
		on[i] = i
	}
	load := rng.Uniform(0.3, 0.8) * float64(n)
	plan, err := hp.Solve(on, load)
	if err != nil {
		return true // infeasible instances are allowed
	}
	if !mathx.ApproxEqual(plan.TotalLoad(), load, 1e-6) {
		return false
	}
	closed := heteroModelPower(hp, on, plan.Loads)
	numeric := heteroModelPower(hp, on, heteroNumericOptimum(hp, on, load))
	return closed <= numeric+1e-3
}

// Property: random mixed-hardware instances — the active-set solution is
// never beaten by the numeric solver. The instances are seeded, so every
// run checks the same 40; the two listed seeds once failed because the
// numeric oracle counted plans that break T_max.
func TestHeteroNumericProperty(t *testing.T) {
	for _, seed := range []int64{4748870091650672952, 4956263726638348521} {
		if !heteroPropertyHolds(seed) {
			t.Fatalf("regression seed %d fails", seed)
		}
	}
	if err := quick.Check(heteroPropertyHolds, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}
