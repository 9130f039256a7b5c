package baseline

import (
	"math"
	"slices"
	"sort"
	"testing"

	"coolopt/internal/core"
	"coolopt/internal/mathx"
	"coolopt/internal/units"
)

// testProfile mirrors the heterogeneous profile used by core's tests.
func testProfile() *core.Profile {
	return &core.Profile{
		W1:         50,
		W2:         35,
		CoolFactor: 70,
		SetPointC:  30,
		TMaxC:      58,
		TAcMinC:    8,
		TAcMaxC:    25,
		Machines: []core.MachineProfile{
			{Alpha: 0.96, Beta: 0.44, Gamma: 1.2},
			{Alpha: 0.93, Beta: 0.45, Gamma: 2.1},
			{Alpha: 0.90, Beta: 0.45, Gamma: 3.0},
			{Alpha: 0.87, Beta: 0.46, Gamma: 3.9},
			{Alpha: 0.83, Beta: 0.47, Gamma: 5.1},
			{Alpha: 0.80, Beta: 0.48, Gamma: 6.0},
		},
	}
}

func newTestPlanner(t *testing.T) *Planner {
	t.Helper()
	pl, err := NewPlanner(testProfile())
	if err != nil {
		t.Fatalf("NewPlanner: %v", err)
	}
	return pl
}

func TestMethodMetadata(t *testing.T) {
	tests := []struct {
		m        Method
		ac       bool
		cons     bool
		contains string
	}{
		{m: EvenNoACNoCons, ac: false, cons: false, contains: "#1"},
		{m: BottomUpNoACNoCons, ac: false, cons: false, contains: "#2"},
		{m: BottomUpNoACCons, ac: false, cons: true, contains: "#3"},
		{m: EvenACNoCons, ac: true, cons: false, contains: "#4"},
		{m: BottomUpACNoCons, ac: true, cons: false, contains: "#5"},
		{m: OptimalACNoCons, ac: true, cons: false, contains: "#6"},
		{m: BottomUpACCons, ac: true, cons: true, contains: "#7"},
		{m: OptimalACCons, ac: true, cons: true, contains: "#8"},
	}
	if len(AllMethods) != 8 {
		t.Fatalf("AllMethods has %d entries", len(AllMethods))
	}
	for _, tt := range tests {
		if tt.m.ACControl() != tt.ac {
			t.Fatalf("%v ACControl = %v", tt.m, tt.m.ACControl())
		}
		if tt.m.Consolidates() != tt.cons {
			t.Fatalf("%v Consolidates = %v", tt.m, tt.m.Consolidates())
		}
		if got := tt.m.String(); len(got) < 2 || got[:2] != tt.contains {
			t.Fatalf("%d String = %q, want prefix %q", int(tt.m), got, tt.contains)
		}
	}
	if got := Method(42).String(); got != "Method(42)" {
		t.Fatalf("unknown method String = %q", got)
	}
}

func TestCoolOrderStartsAtBottom(t *testing.T) {
	pl := newTestPlanner(t)
	order := pl.CoolOrder()
	if order[0] != 0 {
		t.Fatalf("coolest machine = %d, want 0 (bottom)", order[0])
	}
	if order[len(order)-1] != 5 {
		t.Fatalf("warmest machine = %d, want 5 (top)", order[len(order)-1])
	}
}

func TestFixedTAcSafeAtFullLoad(t *testing.T) {
	pl := newTestPlanner(t)
	p := pl.Profile()
	for i := 0; i < p.Size(); i++ {
		if temp := float64(p.CPUTemp(i, 1, pl.FixedTAc())); temp > p.TMaxC+1e-9 {
			t.Fatalf("machine %d at %v °C under fixed supply", i, temp)
		}
	}
}

func TestEvenPlanSplitsUniformly(t *testing.T) {
	pl := newTestPlanner(t)
	plan, err := pl.Plan(EvenACNoCons, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range plan.Loads {
		if !mathx.ApproxEqual(l, 0.5, 1e-12) {
			t.Fatalf("load[%d] = %v, want 0.5", i, l)
		}
	}
	if len(plan.On) != 6 {
		t.Fatalf("even plan powers %d machines", len(plan.On))
	}
}

func TestBottomUpFillsCoolestFirst(t *testing.T) {
	pl := newTestPlanner(t)
	plan, err := pl.Plan(BottomUpACNoCons, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	// Coolest two machines full, third partially, rest idle but on.
	if !mathx.ApproxEqual(plan.Loads[0], 1, 1e-12) || !mathx.ApproxEqual(plan.Loads[1], 1, 1e-12) {
		t.Fatalf("coolest machines not filled: %v", plan.Loads)
	}
	if !mathx.ApproxEqual(plan.Loads[2], 0.5, 1e-12) {
		t.Fatalf("third machine load = %v, want 0.5", plan.Loads[2])
	}
	if plan.Loads[4] != 0 || plan.Loads[5] != 0 {
		t.Fatalf("warm machines loaded: %v", plan.Loads)
	}
	if len(plan.On) != 6 {
		t.Fatalf("no-consolidation plan powers %d machines", len(plan.On))
	}
}

func TestBottomUpConsolidationPowersOffIdle(t *testing.T) {
	pl := newTestPlanner(t)
	plan, err := pl.Plan(BottomUpACCons, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.On) != 3 {
		t.Fatalf("consolidated plan powers %d machines, want 3", len(plan.On))
	}
	if got := plan.TotalLoad(); !mathx.ApproxEqual(got, 2.5, 1e-9) {
		t.Fatalf("total load = %v", got)
	}
}

func TestConsolidatedZeroLoadPowersEverythingOff(t *testing.T) {
	pl := newTestPlanner(t)
	for _, m := range []Method{BottomUpNoACCons, BottomUpACCons, OptimalACCons} {
		plan, err := pl.Plan(m, 0)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(plan.On) != 0 {
			t.Fatalf("%v zero-load plan powers %d machines, want 0", m, len(plan.On))
		}
		if m.ACControl() && float64(plan.TAcC) != pl.Profile().TAcMaxC {
			t.Fatalf("%v empty-room supply %v, want warmest %v", m, plan.TAcC, pl.Profile().TAcMaxC)
		}
		if !m.ACControl() && plan.TAcC != pl.FixedTAc() {
			t.Fatalf("%v empty-room supply %v, want fixed %v", m, plan.TAcC, pl.FixedTAc())
		}
	}
}

func TestNoACMethodsUseFixedSupply(t *testing.T) {
	pl := newTestPlanner(t)
	for _, m := range []Method{EvenNoACNoCons, BottomUpNoACNoCons, BottomUpNoACCons} {
		plan, err := pl.Plan(m, 2)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if plan.TAcC != pl.FixedTAc() {
			t.Fatalf("%v supply = %v, want fixed %v", m, plan.TAcC, pl.FixedTAc())
		}
	}
}

func TestACMethodsRaiseSupplyAtLowLoad(t *testing.T) {
	pl := newTestPlanner(t)
	lowLoad, err := pl.Plan(EvenACNoCons, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if lowLoad.TAcC <= pl.FixedTAc() {
		t.Fatalf("AC control supply %v not above fixed %v at low load", lowLoad.TAcC, pl.FixedTAc())
	}
}

func TestAllMethodsProduceValidPlans(t *testing.T) {
	pl := newTestPlanner(t)
	p := pl.Profile()
	for _, m := range AllMethods {
		for _, load := range []float64{0.6, 1.8, 3, 4.2, 5.4} {
			plan, err := pl.Plan(m, load)
			if err != nil {
				t.Fatalf("%v at load %v: %v", m, load, err)
			}
			if err := p.ValidatePlan(plan, load, 1e-6); err != nil {
				t.Fatalf("%v at load %v: invalid plan: %v", m, load, err)
			}
		}
	}
}

func TestOptimalNeverWorseUnderModel(t *testing.T) {
	// Under the model, #6 must not lose to #4/#5 and #8 must not lose
	// to #7 — optimality is exactly what core guarantees.
	pl := newTestPlanner(t)
	p := pl.Profile()
	for _, load := range []float64{0.6, 1.8, 3, 4.2, 5.4} {
		power := make(map[Method]float64, len(AllMethods))
		for _, m := range AllMethods {
			plan, err := pl.Plan(m, load)
			if err != nil {
				t.Fatalf("%v: %v", m, err)
			}
			power[m] = float64(p.PlanPower(plan))
		}
		if power[OptimalACNoCons] > power[EvenACNoCons]+1e-6 ||
			power[OptimalACNoCons] > power[BottomUpACNoCons]+1e-6 {
			t.Fatalf("load %v: #6 (%v W) loses to #4 (%v W) or #5 (%v W)",
				load, power[OptimalACNoCons], power[EvenACNoCons], power[BottomUpACNoCons])
		}
		if power[OptimalACCons] > power[BottomUpACCons]+1e-6 {
			t.Fatalf("load %v: #8 (%v W) loses to #7 (%v W)",
				load, power[OptimalACCons], power[BottomUpACCons])
		}
	}
}

func TestConsolidationHelpsAtLowLoadUnderModel(t *testing.T) {
	pl := newTestPlanner(t)
	p := pl.Profile()
	plan3, err := pl.Plan(BottomUpNoACCons, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := pl.Plan(BottomUpNoACNoCons, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if p.PlanPower(plan3) >= p.PlanPower(plan2) {
		t.Fatalf("consolidation (%v W) not cheaper than no consolidation (%v W) at low load",
			p.PlanPower(plan3), p.PlanPower(plan2))
	}
}

func TestPlanRejectsBadInput(t *testing.T) {
	pl := newTestPlanner(t)
	if _, err := pl.Plan(EvenACNoCons, -1); err == nil {
		t.Fatal("negative load accepted")
	}
	if _, err := pl.Plan(EvenACNoCons, 100); err == nil {
		t.Fatal("overload accepted")
	}
	if _, err := pl.Plan(Method(0), 1); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestNewPlannerRejectsBadProfile(t *testing.T) {
	p := testProfile()
	p.W1 = -1
	if _, err := NewPlanner(p); err == nil {
		t.Fatal("invalid profile accepted")
	}
}

func TestPlansAreIndependentAllocations(t *testing.T) {
	// Two plans from the same planner must not share backing arrays.
	pl := newTestPlanner(t)
	a, err := pl.Plan(EvenACNoCons, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pl.Plan(EvenACNoCons, 3)
	if err != nil {
		t.Fatal(err)
	}
	a.Loads[0] = math.NaN()
	if math.IsNaN(b.Loads[0]) {
		t.Fatal("plans share load slices")
	}
}

// TestCoolOrderMatchesStableSort pins the precomputed-key ranking to the
// stable sort by idle temperature it replaces, on a room where most
// machines share their idle temperature with others, so the ID
// tie-break decides much of the order.
func TestCoolOrderMatchesStableSort(t *testing.T) {
	base := testProfile().Machines
	rng := mathx.NewRand(3)
	p := testProfile()
	p.Machines = make([]core.MachineProfile, 120)
	for i := range p.Machines {
		p.Machines[i] = base[rng.Intn(3)] // three idle temperatures, 40 machines each
	}
	p.Machines[17] = base[5]
	p.Machines[90] = base[4]
	ref := units.Celsius((p.TAcMinC + p.TAcMaxC) / 2)
	want := make([]int, p.Size())
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool {
		return p.CPUTemp(want[a], 0, ref) < p.CPUTemp(want[b], 0, ref)
	})
	pods, err := core.NewPodSnapshot(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlannerOnPods(pods)
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.CoolOrder(); !slices.Equal(got, want) {
		t.Fatalf("cool order\n got %v\nwant %v", got, want)
	}
}
