package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"coolopt/internal/mathx"
	"coolopt/internal/units"
)

// unclampedLoad returns a total load for which the closed form lands
// strictly inside the actuation range on the full on set of testProfile.
const unclampedLoad = 5.0

func fullOn(p *Profile) []int {
	on := make([]int, p.Size())
	for i := range on {
		on[i] = i
	}
	return on
}

func TestSolveMeetsLoadConstraint(t *testing.T) {
	p := testProfile()
	plan, err := p.Solve(fullOn(p), unclampedLoad)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if got := plan.TotalLoad(); !mathx.ApproxEqual(got, unclampedLoad, 1e-9) {
		t.Fatalf("total load = %v, want %v", got, unclampedLoad)
	}
}

func TestSolvePutsEveryMachineAtTMax(t *testing.T) {
	// Paper Eq. 17: at the optimum all temperature constraints are
	// active — every powered-on CPU sits exactly at T_max.
	p := testProfile()
	plan, err := p.Solve(fullOn(p), unclampedLoad)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if plan.Clamped {
		t.Fatalf("test load should be unclamped, got T_ac = %v", plan.TAcC)
	}
	for _, i := range plan.On {
		temp := float64(p.CPUTemp(i, plan.Loads[i], plan.TAcC))
		if !mathx.ApproxEqual(temp, p.TMaxC, 1e-9) {
			t.Fatalf("machine %d at %v °C, want exactly T_max %v", i, temp, p.TMaxC)
		}
	}
}

func TestSolveMatchesClosedFormEquations(t *testing.T) {
	p := testProfile()
	on := []int{0, 2, 4}
	const load = 2.4
	plan, err := p.Solve(on, load)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	var sumK, sumAB float64
	for _, i := range on {
		sumK += p.K(i)
		sumAB += p.RatioAB(i)
	}
	wantTAc := p.W1 * (sumK - load) / sumAB // Eq. 21
	if !mathx.ApproxEqual(float64(plan.TAcC), wantTAc, 1e-9) {
		t.Fatalf("T_ac = %v, want %v", plan.TAcC, wantTAc)
	}
	for _, i := range on {
		wantL := p.K(i) - (sumK-load)*p.RatioAB(i)/sumAB // Eq. 22
		if !mathx.ApproxEqual(plan.Loads[i], wantL, 1e-9) {
			t.Fatalf("L[%d] = %v, want %v", i, plan.Loads[i], wantL)
		}
	}
}

func TestSolveCoolerMachinesGetMoreLoad(t *testing.T) {
	// The paper's headline insight: the optimum is slightly imbalanced,
	// favouring the machines in cooler spots.
	p := testProfile()
	plan, err := p.Solve(fullOn(p), unclampedLoad)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if plan.Loads[0] <= plan.Loads[5] {
		t.Fatalf("bottom load %v ≤ top load %v", plan.Loads[0], plan.Loads[5])
	}
}

func TestSolveHomogeneousIsEven(t *testing.T) {
	p := testProfile()
	for i := range p.Machines {
		p.Machines[i] = MachineProfile{Alpha: 0.9, Beta: 0.45, Gamma: 3}
	}
	plan, err := p.Solve(fullOn(p), unclampedLoad)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := unclampedLoad / float64(p.Size())
	for _, i := range plan.On {
		if !mathx.ApproxEqual(plan.Loads[i], want, 1e-9) {
			t.Fatalf("homogeneous load[%d] = %v, want %v", i, plan.Loads[i], want)
		}
	}
}

func TestSolveClampsAtLowLoad(t *testing.T) {
	p := testProfile()
	plan, err := p.Solve(fullOn(p), 0.5)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !plan.Clamped || float64(plan.TAcC) != p.TAcMaxC {
		t.Fatalf("low-load plan = %+v, want clamp at T_ac max %v", plan, p.TAcMaxC)
	}
}

func TestSolveInfeasibleLoad(t *testing.T) {
	p := testProfile()
	// A load far beyond ΣK forces a supply temperature below the
	// actuator minimum.
	if _, err := p.Solve(fullOn(p), 50); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("got err %v, want ErrInfeasible", err)
	}
}

func TestSolveInputValidation(t *testing.T) {
	p := testProfile()
	if _, err := p.Solve(nil, 1); err == nil {
		t.Fatal("empty on set accepted")
	}
	if _, err := p.Solve([]int{0, 0}, 1); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if _, err := p.Solve([]int{9}, 1); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := p.Solve([]int{0}, -1); err == nil {
		t.Fatal("negative load accepted")
	}
}

// TestSolveOptimality verifies the headline claim: no feasible alternative
// allocation over the same on set (with its own best safe T_ac) consumes
// less model power than the closed form.
func TestSolveOptimality(t *testing.T) {
	p := testProfile()
	on := fullOn(p)
	plan, err := p.Solve(on, unclampedLoad)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	optPower := float64(p.PlanPower(plan))

	rng := mathx.NewRand(42)
	for trial := 0; trial < 500; trial++ {
		// Random allocation over the simplex scaled to the load.
		weights := make([]float64, len(on))
		sum := 0.0
		for i := range weights {
			weights[i] = rng.Uniform(0.05, 1)
			sum += weights[i]
		}
		loads := make([]float64, p.Size())
		for i, w := range weights {
			loads[on[i]] = w / sum * unclampedLoad
		}
		tAc, err := p.MaxSafeTAc(on, loads)
		if err != nil {
			continue // alternative infeasible
		}
		alt := &Plan{On: on, Loads: loads, TAcC: tAc}
		if altPower := float64(p.PlanPower(alt)); altPower < optPower-1e-6 {
			t.Fatalf("trial %d: alternative power %v beats optimal %v (loads %v)",
				trial, altPower, optPower, loads)
		}
	}
}

// Property: for random feasible on sets and loads, the plan satisfies the
// temperature constraint with equality on every on machine (unclamped
// case) and carries exactly the requested load.
func TestSolveInvariantsProperty(t *testing.T) {
	p := testProfile()
	f := func(seed int64) bool {
		rng := mathx.NewRand(seed)
		// Random subset of size ≥ 3 to keep unclamped loads reachable.
		perm := rng.Perm(p.Size())
		k := 3 + rng.Intn(p.Size()-2)
		on := perm[:k]
		var sumK, sumAB float64
		for _, i := range on {
			sumK += p.K(i)
			sumAB += p.RatioAB(i)
		}
		// Pick a load that lands T_ac strictly inside the bounds.
		tAc := rng.Uniform(p.TAcMinC+0.5, p.TAcMaxC-0.5)
		load := sumK - tAc*sumAB/p.W1
		if load <= 0 {
			return true
		}
		plan, err := p.Solve(on, load)
		if err != nil {
			return false
		}
		if plan.Clamped {
			return false
		}
		if !mathx.ApproxEqual(plan.TotalLoad(), load, 1e-6) {
			return false
		}
		for _, i := range plan.On {
			if !mathx.ApproxEqual(float64(p.CPUTemp(i, plan.Loads[i], plan.TAcC)), p.TMaxC, 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSolveBoundedRespectsBoxConstraints(t *testing.T) {
	p := testProfile()
	// Push load high enough that the raw closed form would overload the
	// coolest machines past 100 %.
	load := 5.8
	plan, err := p.SolveBounded(fullOn(p), load)
	if err != nil {
		t.Fatalf("SolveBounded: %v", err)
	}
	for i, l := range plan.Loads {
		if l < -1e-9 || l > 1+1e-9 {
			t.Fatalf("load[%d] = %v outside [0, 1]", i, l)
		}
	}
	if !mathx.ApproxEqual(plan.TotalLoad(), load, 1e-6) {
		t.Fatalf("total load = %v, want %v", plan.TotalLoad(), load)
	}
	if err := p.ValidatePlan(plan, load, 1e-6); err != nil {
		t.Fatalf("ValidatePlan: %v", err)
	}
}

func TestSolveBoundedAgreesWithSolveWhenInterior(t *testing.T) {
	p := testProfile()
	a, err := p.Solve(fullOn(p), unclampedLoad)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.SolveBounded(fullOn(p), unclampedLoad)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Loads {
		if !mathx.ApproxEqual(a.Loads[i], b.Loads[i], 1e-9) {
			t.Fatalf("load[%d]: Solve %v vs SolveBounded %v", i, a.Loads[i], b.Loads[i])
		}
	}
	if !mathx.ApproxEqual(float64(a.TAcC), float64(b.TAcC), 1e-9) {
		t.Fatalf("T_ac: Solve %v vs SolveBounded %v", a.TAcC, b.TAcC)
	}
}

func TestSolveBoundedOverCapacity(t *testing.T) {
	p := testProfile()
	if _, err := p.SolveBounded([]int{0, 1}, 2.5); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("got err %v, want ErrInfeasible", err)
	}
}

func TestPlanPowerDecomposition(t *testing.T) {
	p := testProfile()
	plan, err := p.Solve(fullOn(p), unclampedLoad)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(p.CoolingPower(plan.TAcC))
	for _, i := range plan.On {
		want += float64(p.ServerPower(plan.Loads[i]))
	}
	if got := float64(p.PlanPower(plan)); !mathx.ApproxEqual(got, want, 1e-9) {
		t.Fatalf("PlanPower = %v, want %v", got, want)
	}
}

func TestPlanPowerMatchesReducedSubsetPower(t *testing.T) {
	// Cross-check Eqs. 21–22 against Eq. 23: the plan's model power must
	// equal the reduced instance's subset power when T_ac is unclamped.
	p := testProfile()
	red := p.Reduce()
	on := []int{1, 2, 3, 4}
	const load = 3.3
	plan, err := p.Solve(on, load)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Clamped {
		t.Fatalf("expected unclamped plan, got T_ac %v", plan.TAcC)
	}
	want, err := red.SubsetPower(on, load)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(p.PlanPower(plan)); !mathx.ApproxEqual(got, want, 1e-6) {
		t.Fatalf("PlanPower = %v, SubsetPower = %v", got, want)
	}
}

func TestValidatePlanCatchesViolations(t *testing.T) {
	p := testProfile()
	plan, err := p.Solve(fullOn(p), unclampedLoad)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ValidatePlan(plan, unclampedLoad, 1e-9); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}

	hot := *plan
	hot.TAcC += 2 // overheats every machine past T_max
	if err := p.ValidatePlan(&hot, unclampedLoad, 0); err == nil {
		t.Fatal("overheated plan accepted")
	}

	short := *plan
	short.Loads = plan.Loads[:2]
	if err := p.ValidatePlan(&short, unclampedLoad, 0); err == nil {
		t.Fatal("wrong-length plan accepted")
	}

	offLoaded := *plan
	offLoaded.On = []int{0, 1}
	if err := p.ValidatePlan(&offLoaded, unclampedLoad, 0); err == nil {
		t.Fatal("load on powered-off machine accepted")
	}

	wrongTotal := *plan
	if err := p.ValidatePlan(&wrongTotal, unclampedLoad+1, 0); err == nil {
		t.Fatal("wrong total accepted")
	}
}

func TestValidatePlanRejectsOverUnitLoad(t *testing.T) {
	p := testProfile()
	loads := make([]float64, p.Size())
	loads[0] = 1.5
	plan := &Plan{On: []int{0}, Loads: loads, TAcC: units.Celsius(p.TAcMinC)}
	if err := p.ValidatePlan(plan, 1.5, math.Inf(1)); err == nil {
		t.Fatal("over-unit load accepted")
	}
}

// TestValidatePlanRejectsBadOnIndex checks that a malformed on set is an
// error, not a panic or a silent pass: an index outside [0, n) on either
// side, and a machine listed twice.
func TestValidatePlanRejectsBadOnIndex(t *testing.T) {
	p := testProfile()
	plan, err := p.Solve(fullOn(p), unclampedLoad)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		on         []int
	}{
		{"past the end", "out of range", append(append([]int(nil), plan.On...), p.Size())},
		{"negative", "out of range", append([]int{-1}, plan.On...)},
		{"duplicate", "duplicate machine index", append(append([]int(nil), plan.On...), plan.On[0])},
	} {
		bad := *plan
		bad.On = tc.on
		err := p.ValidatePlan(&bad, unclampedLoad, 1e-9)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: ValidatePlan = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
