package main

import (
	"math"
	"strings"
	"testing"

	"coolopt/internal/core"
	"coolopt/internal/units"
)

// twoMachines is a hand-worked instance: identical machines with
// K = (65 − 0.5·30)/(0.5·50) = 2 and α/β = 2.
func twoMachines() *core.Profile {
	return &core.Profile{
		W1: 50, W2: 30, CoolFactor: 100, SetPointC: 40,
		TMaxC: 65, TAcMinC: 10, TAcMaxC: 45,
		Machines: []core.MachineProfile{
			{Alpha: 1, Beta: 0.5, Gamma: 0},
			{Alpha: 1, Beta: 0.5, Gamma: 0},
		},
	}
}

// threeMachines is a hand-worked heterogeneous instance:
//
//	machine  K     α/β
//	0        2     2
//	1        1.92  2
//	2        2.5   2.5
//
// so ΣK = 6.42 and Σ α/β = 6.5.
func threeMachines() *core.Profile {
	return &core.Profile{
		W1: 50, W2: 30, CoolFactor: 100, SetPointC: 50,
		TMaxC: 65, TAcMinC: 10, TAcMaxC: 45,
		Machines: []core.MachineProfile{
			{Alpha: 1, Beta: 0.5, Gamma: 0},
			{Alpha: 1, Beta: 0.5, Gamma: 2},
			{Alpha: 1, Beta: 0.4, Gamma: 3},
		},
	}
}

func close9(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

func TestClosedFormTwoMachines(t *testing.T) {
	// L = 1: T_ac = 50·(4 − 1)/4 = 37.5, L_i = 2 − 3·2/4 = 0.5.
	tAc, loads := closedForm(twoMachines(), []int{0, 1}, 1)
	if !close9(tAc, 37.5) || !close9(loads[0], 0.5) || !close9(loads[1], 0.5) {
		t.Fatalf("closed form = %v, %v; want 37.5, [0.5 0.5]", tAc, loads)
	}
}

func TestClosedFormThreeMachines(t *testing.T) {
	// L = 1.22: surplus 5.2, T_ac = 50·5.2/6.5 = 40, L_i = K_i − 0.8·(α/β)_i.
	tAc, loads := closedForm(threeMachines(), []int{0, 1, 2}, 1.22)
	want := []float64{0.4, 0.32, 0.5}
	if !close9(tAc, 40) {
		t.Fatalf("T_ac = %v, want 40", tAc)
	}
	for i, w := range want {
		if !close9(loads[i], w) {
			t.Fatalf("L_%d = %v, want %v", i, loads[i], w)
		}
	}
}

func TestCPUTempAtTheOptimum(t *testing.T) {
	// Eqs. 21–22 put every machine exactly at T_max: e.g. machine 1 at
	// 40 + 0.5·(50·0.32 + 30) + 2 = 65.
	p := threeMachines()
	for i, l := range []float64{0.4, 0.32, 0.5} {
		if got := cpuTemp(p, i, l, 40); !close9(got, 65) {
			t.Fatalf("machine %d at %v °C, want 65", i, got)
		}
	}
	if got := cpuTemp(twoMachines(), 0, 1, 20); !close9(got, 60) {
		t.Fatalf("20 + 0.5·80 = %v, want 60", got)
	}
}

func TestPlanPower(t *testing.T) {
	// Servers 50 + 46 + 55 = 151 W, cooling 100·(50 − 40) = 1000 W.
	p := threeMachines()
	if got := planPowerW(p, []int{0, 1, 2}, []float64{0.4, 0.32, 0.5}, 40); !close9(got, 1151) {
		t.Fatalf("power = %v W, want 1151", got)
	}
	// Two machines at 0.5 under 37.5 °C: 2·55 + 100·2.5 = 360 W.
	if got := planPowerW(twoMachines(), []int{0, 1}, []float64{0.5, 0.5}, 37.5); !close9(got, 360) {
		t.Fatalf("power = %v W, want 360", got)
	}
	// Supply above the set point: cooling floors at 0.
	if got := planPowerW(twoMachines(), []int{0}, []float64{0, 0}, 42); !close9(got, 30) {
		t.Fatalf("power = %v W, want 30", got)
	}
}

func TestEq23MatchesPlanPower(t *testing.T) {
	// t_S = 5.2/6.5 = 0.8 and 3·30 − 100·50·0.8 + 100·50 + 50·1.22 = 1151.
	p := threeMachines()
	if err := checkConsolidation(p, []int{0, 1, 2}, 0.8, 1151, 1.22, 3); err != nil {
		t.Fatal(err)
	}
	if err := checkConsolidation(p, []int{0, 1, 2}, 0.8, 1150, 1.22, 3); err == nil {
		t.Fatal("a wrong power passed")
	}
	if err := checkConsolidation(p, []int{0, 1, 2}, 0.8, 1151, 1.22, 4); err == nil {
		t.Fatal("a subset below minK passed")
	}
	if err := checkMaxLoad(p, []int{0, 1, 2}, 1.22, 0.8, 1151); err != nil {
		t.Fatal(err)
	}
	if err := checkMaxLoad(p, []int{0, 1, 2}, 1.22, 0.8, 1100); err == nil {
		t.Fatal("a load over the budget passed")
	}
}

func optimum() *core.Plan {
	return &core.Plan{On: []int{0, 1, 2}, Loads: []float64{0.4, 0.32, 0.5}, TAcC: 40}
}

func TestCheckPlanAcceptsTheOptimum(t *testing.T) {
	c, err := checkPlan(threeMachines(), optimum(), 1.22, sumTol, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !c.loads || !c.supply {
		t.Fatalf("closed form not compared: %+v", c)
	}
}

func TestCheckPlanRejects(t *testing.T) {
	p := threeMachines()
	cases := map[string]func(pl *core.Plan) (want float64, avoid []int){
		"too warm":        func(pl *core.Plan) (float64, []int) { pl.TAcC = 40.5; return 1.22, nil },
		"wrong total":     func(pl *core.Plan) (float64, []int) { return 1.3, nil },
		"off with load":   func(pl *core.Plan) (float64, []int) { pl.On = []int{0, 1}; return 1.22, nil },
		"avoided is on":   func(pl *core.Plan) (float64, []int) { return 1.22, []int{2} },
		"outside CRAC":    func(pl *core.Plan) (float64, []int) { pl.TAcC = 9; return 1.22, nil },
		"not Eq. 22":      func(pl *core.Plan) (float64, []int) { pl.Loads = []float64{0.41, 0.31, 0.5}; return 1.22, nil },
		"colder than Eq.": func(pl *core.Plan) (float64, []int) { pl.TAcC = 39; return 1.22, nil },
		"unsorted on set": func(pl *core.Plan) (float64, []int) { pl.On = []int{1, 0, 2}; return 1.22, nil },
	}
	for name, mutate := range cases {
		pl := optimum()
		want, avoid := mutate(pl)
		if _, err := checkPlan(p, pl, want, sumTol, avoid); err == nil {
			t.Errorf("%s: passed", name)
		}
	}
}

func TestCheckPlanWithAPinnedMachine(t *testing.T) {
	// At L = 2.6 Eq. 22 would load machine 2 at 2.5 − 2.5·(3.82/6.5) ≈
	// 1.03, so it is pinned at 1 and machines 0 and 1 share the residual
	// 1.6: s = (3.92 − 1.6)/4 = 0.58, L_0 = 2 − 1.16 = 0.84, L_1 = 1.92 −
	// 1.16 = 0.76, T_ac = 50·0.58 = 29 °C, and machine 2 runs at
	// 29 + 0.4·80 + 3 = 64 °C.
	p := threeMachines()
	pl := &core.Plan{On: []int{0, 1, 2}, Loads: []float64{0.84, 0.76, 1}, TAcC: units.Celsius(29)}
	c, err := checkPlan(p, pl, 2.6, sumTol, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !c.loads || c.supply {
		t.Fatalf("want loads compared and T_ac only bounded: %+v", c)
	}
	// The program's own bounded solve lands on the same plan.
	got, err := p.SolveBounded([]int{0, 1, 2}, 2.6)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range pl.Loads {
		if !close9(got.Loads[i], l) {
			t.Fatalf("SolveBounded L_%d = %v, hand-worked %v", i, got.Loads[i], l)
		}
	}
	if !close9(float64(got.TAcC), 29) {
		t.Fatalf("SolveBounded T_ac = %v, hand-worked 29", got.TAcC)
	}
	pl.TAcC = 29.5
	if _, err := checkPlan(p, pl, 2.6, sumTol, nil); err == nil {
		t.Fatal("a supply warmer than Eq. 21 over the free machines passed")
	}
}

func TestConsolidationNoWorse(t *testing.T) {
	p := twoMachines()
	allOn := &core.Plan{On: []int{0, 1}, Loads: []float64{0.5, 0.5}, TAcC: 37.5} // 360 W
	one := &core.Plan{On: []int{0}, Loads: []float64{1, 0}, TAcC: 25}            // 80 + 1500 W
	if _, ok := consolidationNoWorse(p, allOn, allOn); !ok {
		t.Fatal("equal plans reported worse")
	}
	excess, ok := consolidationNoWorse(p, one, allOn)
	if ok || !close9(excess, 1220) {
		t.Fatalf("excess = %v, ok = %v; want 1220 W and a failure", excess, ok)
	}
}

func TestSamePlanIsBitExact(t *testing.T) {
	a, b := optimum(), optimum()
	if err := samePlan(a, b); err != nil {
		t.Fatal(err)
	}
	b.Loads[1] = math.Nextafter(b.Loads[1], 1)
	if err := samePlan(a, b); err == nil || !strings.Contains(err.Error(), "machine 1") {
		t.Fatalf("a one-ulp load change gave %v", err)
	}
	b = optimum()
	b.TAcC = units.Celsius(math.Nextafter(40, 0))
	if err := samePlan(a, b); err == nil {
		t.Fatal("a one-ulp T_ac change passed")
	}
}
