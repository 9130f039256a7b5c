package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"coolopt/internal/baseline"
	"coolopt/internal/core"
	"coolopt/internal/units"
)

// bottomUpMethods are the scenarios that read the planner's cool order.
var bottomUpMethods = []baseline.Method{
	baseline.BottomUpNoACNoCons, baseline.BottomUpNoACCons,
	baseline.BottomUpACNoCons, baseline.BottomUpACCons,
}

// eagerCoolOrder is the cool order as a stable sort of 0..n−1 by idle CPU
// temperature at the mid supply temperature.
func eagerCoolOrder(p *core.Profile) []int {
	ref := units.Celsius((p.TAcMinC + p.TAcMaxC) / 2)
	order := make([]int, p.Size())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return p.CPUTemp(order[a], 0, ref) < p.CPUTemp(order[b], 0, ref)
	})
	return order
}

// bottomUpRef is cool job allocation over a given order: machines filled
// to capacity in order, the rest off under consolidation, and the supply
// at the fixed setting or the warmest safe one.
func bottomUpRef(p *core.Profile, order []int, m baseline.Method, load float64, fixed units.Celsius) (*core.Plan, error) {
	loads := make([]float64, p.Size())
	used := make([]bool, p.Size())
	remaining := load
	for _, i := range order {
		if remaining <= 0 {
			break
		}
		loads[i], used[i] = min(remaining, 1), true
		remaining -= loads[i]
	}
	var on []int
	for i, u := range used {
		if u || !m.Consolidates() {
			on = append(on, i)
		}
	}
	plan := &core.Plan{On: on, Loads: loads, TAcC: fixed}
	if m.ACControl() {
		tAc, err := p.MaxSafeTAc(on, loads)
		if err != nil {
			return nil, err
		}
		plan.TAcC = tAc
	}
	return plan, nil
}

// TestCoolOrderBuiltOnFirstUse pins the lazily built cool order of a pod
// engine's scenario planner to an eager sort, before and after an
// install re-orders the room: CoolOrder and all four bottom-up scenarios,
// each generation's first use made by 8 goroutines at once (run under
// -race).
func TestCoolOrderBuiltOnFirstUse(t *testing.T) {
	const n = 96
	p := testProfile(n)
	for i := range p.Machines {
		p.Machines[i].Gamma += 2 * math.Sin(float64(i)*2.399963)
	}
	ps, err := core.NewPodSnapshot(p, 0, core.WithPodCount(4))
	if err != nil {
		t.Fatal(err)
	}
	e, err := FromPodSnapshot(ps, WithExactCacheKeys())
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		st := e.state.Load()
		want := eagerCoolOrder(st.profile)
		const workers = 8
		orders := make([][]int, workers)
		plans := make([]*core.Plan, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				orders[g] = st.planner.CoolOrder()
				resp, err := e.Plan(context.Background(), Request{Method: bottomUpMethods[g%4], Load: float64(n) * (0.15 + 0.1*float64(g))})
				if err == nil {
					plans[g] = resp.Plan
				}
				errs[g] = err
			}(g)
		}
		wg.Wait()
		for g := 0; g < workers; g++ {
			if !slices.Equal(orders[g], want) {
				t.Fatalf("%s: worker %d cool order\n got %v\nwant %v", label, g, orders[g], want)
			}
			m, load := bottomUpMethods[g%4], float64(n)*(0.15+0.1*float64(g))
			ref, refErr := bottomUpRef(st.profile, want, m, load, st.planner.FixedTAc())
			if (errs[g] == nil) != (refErr == nil) {
				t.Fatalf("%s: %v at %v: err %v, reference %v", label, m, load, errs[g], refErr)
			}
			if errs[g] == nil {
				samePlanBits(t, fmt.Sprintf("%s: %v at %v", label, m, load), plans[g], ref)
			}
		}
	}
	check("initial")
	// Warm the room's coolest machines past the rest, so the new
	// generation's order differs from the old one.
	before := eagerCoolOrder(e.state.Load().profile)
	var batch []core.MachineDelta
	for _, id := range before[:8] {
		m := p.Machines[id]
		m.Gamma += 4
		batch = append(batch, core.MachineDelta{ID: id, Machine: m})
	}
	if _, err := e.InstallPatch(batch); err != nil {
		t.Fatal(err)
	}
	if slices.Equal(eagerCoolOrder(e.state.Load().profile), before) {
		t.Fatal("drift left the cool order unchanged; the test would not see a stale order")
	}
	check("after install")
}
