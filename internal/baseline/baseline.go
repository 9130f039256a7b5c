// Package baseline implements the load-allocation policies the paper
// compares against and the eight-scenario evaluation matrix of Fig. 4:
//
//	#1 Even,      no AC control, no consolidation
//	#2 Bottom-up, no AC control, no consolidation
//	#3 Bottom-up, no AC control, consolidation
//	#4 Even,      AC control,    no consolidation
//	#5 Bottom-up, AC control,    no consolidation
//	#6 Optimal,   AC control,    no consolidation
//	#7 Bottom-up, AC control,    consolidation   (best prior art)
//	#8 Optimal,   AC control,    consolidation   (the paper's solution)
//
// "Even" is standard load balancing. "Bottom-up" is the cool job
// allocation of Bash & Forman (USENIX ATC'07): fill machines up, coolest
// spot first. "Optimal" is the paper's closed form (internal/core).
// Without AC control the supply temperature is pinned at the highest value
// that is safe when every machine runs at full load (paper §IV-B); with AC
// control each method raises the supply as far as its own allocation
// allows.
package baseline

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"coolopt/internal/core"
	"coolopt/internal/units"
)

// Method identifies one evaluation scenario; the constant values match the
// paper's numbering in Fig. 4.
type Method int

// The eight scenarios of Fig. 4.
const (
	EvenNoACNoCons Method = iota + 1
	BottomUpNoACNoCons
	BottomUpNoACCons
	EvenACNoCons
	BottomUpACNoCons
	OptimalACNoCons
	BottomUpACCons
	OptimalACCons
)

// AllMethods lists the scenarios in paper order.
var AllMethods = []Method{
	EvenNoACNoCons, BottomUpNoACNoCons, BottomUpNoACCons, EvenACNoCons,
	BottomUpACNoCons, OptimalACNoCons, BottomUpACCons, OptimalACCons,
}

// String returns the paper-style label, e.g. "#7 Bottom-up (AC, consolidation)".
func (m Method) String() string {
	switch m {
	case EvenNoACNoCons:
		return "#1 Even (no AC control)"
	case BottomUpNoACNoCons:
		return "#2 Bottom-up (no AC control)"
	case BottomUpNoACCons:
		return "#3 Bottom-up (no AC control, consolidation)"
	case EvenACNoCons:
		return "#4 Even (AC control)"
	case BottomUpACNoCons:
		return "#5 Bottom-up (AC control)"
	case OptimalACNoCons:
		return "#6 Optimal (AC control)"
	case BottomUpACCons:
		return "#7 Bottom-up (AC control, consolidation)"
	case OptimalACCons:
		return "#8 Optimal (AC control, consolidation)"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ACControl reports whether the scenario tunes the supply temperature.
func (m Method) ACControl() bool {
	switch m {
	case EvenNoACNoCons, BottomUpNoACNoCons, BottomUpNoACCons:
		return false
	default:
		return true
	}
}

// Consolidates reports whether the scenario powers machines off.
func (m Method) Consolidates() bool {
	switch m {
	case BottomUpNoACCons, BottomUpACCons, OptimalACCons:
		return true
	default:
		return false
	}
}

// Planner produces executable plans for every scenario against one
// profiled machine room.
//
// The cool order ranks machines by their modeled idle CPU temperature at
// a reference supply temperature — the measurable proxy for "coolest
// spot" that the cool-job-allocation operators would use. Only the
// bottom-up scenarios read it, and it is an O(n log n) sort, so it is
// built on the first bottomUpPlan or CoolOrder call rather than at
// construction: an engine rebuilds its planner on every install, and
// most generations never serve a bottom-up plan. The fixed supply
// temperature — the highest value safe with every machine at full load —
// is computed eagerly, so a room without one is refused at construction.
type Planner struct {
	profile   *core.Profile
	optimizer *core.Optimizer
	fixedTAc  units.Celsius // supply temperature for the no-AC-control scenarios

	coolOnce  sync.Once
	coolOrder []int // machine IDs coolest-spot first; set by coolOnce
}

// NewPlanner builds a planner over a whole-room snapshot of p.
func NewPlanner(p *core.Profile, opts ...core.PreprocessOption) (*Planner, error) {
	snap, err := core.NewSnapshot(p, 0, opts...)
	if err != nil {
		return nil, err
	}
	return NewPlannerOn(snap)
}

// NewPlannerOn builds a planner over an existing frozen snapshot, sharing
// its consolidation tables instead of re-running preprocessing. Like the
// snapshot itself, the returned planner is read-only after construction
// and safe for concurrent Plan calls.
func NewPlannerOn(snap *core.Snapshot) (*Planner, error) {
	return newPlanner(snap.Profile(), core.NewOptimizerFromSnapshot(snap))
}

// NewPlannerOnPods builds a planner over a pod snapshot's frozen profile,
// without whole-room consolidation tables: every scenario works except
// #8, which needs the kinetic structure and returns an error. This is
// the construction for pod-only serving (rooms past the whole-room table
// cap), where the hierarchical engine path answers #8 instead. The
// snapshot validated its profile when it was built, so this does not
// validate it again.
func NewPlannerOnPods(pods *core.PodSnapshot) (*Planner, error) {
	return newPlanner(pods.Profile(), nil)
}

func newPlanner(p *core.Profile, opt *core.Optimizer) (*Planner, error) {
	fixed, err := p.MaxSafeTAcAllOn(1)
	if err != nil {
		return nil, fmt.Errorf("baseline: no safe fixed supply temperature: %w", err)
	}
	return &Planner{profile: p, optimizer: opt, fixedTAc: fixed}, nil
}

// order returns the cool order, building it on first use.
func (pl *Planner) order() []int {
	pl.coolOnce.Do(func() {
		pl.coolOrder = coolOrder(pl.profile, units.Celsius((pl.profile.TAcMinC+pl.profile.TAcMaxC)/2))
	})
	return pl.coolOrder
}

// coolOrder ranks machine IDs by idle CPU temperature at supply ref,
// coolest first, with ties in ascending ID order. Each temperature is
// computed once; the ranking equals a stable sort of 0..n−1 by it.
func coolOrder(p *core.Profile, ref units.Celsius) []int {
	type ranked struct {
		temp float64
		id   int
	}
	keys := make([]ranked, p.Size())
	for i := range keys {
		keys[i] = ranked{float64(p.CPUTemp(i, 0, ref)), i}
	}
	slices.SortFunc(keys, func(a, b ranked) int {
		switch {
		case a.temp < b.temp:
			return -1
		case b.temp < a.temp:
			return 1
		}
		return cmp.Compare(a.id, b.id)
	})
	order := make([]int, len(keys))
	for j, k := range keys {
		order[j] = k.id
	}
	return order
}

// Profile returns the profile the planner plans against.
func (pl *Planner) Profile() *core.Profile { return pl.profile }

// Snapshot returns the frozen model backing the planner, or nil for a
// pod planner (NewPlannerOnPods).
func (pl *Planner) Snapshot() *core.Snapshot {
	if pl.optimizer == nil {
		return nil
	}
	return pl.optimizer.Snapshot()
}

// FixedTAc returns the supply temperature used when AC control is off.
func (pl *Planner) FixedTAc() units.Celsius { return pl.fixedTAc }

// CoolOrder returns machine IDs coolest-spot first.
func (pl *Planner) CoolOrder() []int {
	return append([]int(nil), pl.order()...)
}

// Plan returns the plan for a scenario at the given total load (in
// machine-utilization units).
func (pl *Planner) Plan(m Method, load float64) (*core.Plan, error) {
	p := pl.profile
	n := p.Size()
	if load < 0 || load > float64(n) {
		return nil, fmt.Errorf("baseline: load %v outside [0, %d]", load, n)
	}

	// Zero demand with consolidation: power the whole room off (the
	// CRAC idles at its warmest supply).
	if load == 0 && m.Consolidates() {
		return &core.Plan{Loads: make([]float64, n), TAcC: pl.tAcForOff(m)}, nil
	}

	var plan *core.Plan
	switch m {
	case EvenNoACNoCons, EvenACNoCons:
		plan = pl.evenPlan(load)
	case BottomUpNoACNoCons, BottomUpACNoCons:
		plan = pl.bottomUpPlan(load, false)
	case BottomUpNoACCons, BottomUpACCons:
		plan = pl.bottomUpPlan(load, true)
	case OptimalACNoCons:
		return p.PlanAllOn(load)
	case OptimalACCons:
		if pl.optimizer == nil {
			return nil, fmt.Errorf("baseline: %v requires consolidation tables (pod planner; use the hierarchical engine path)", m)
		}
		return pl.optimizer.Plan(load)
	default:
		return nil, fmt.Errorf("baseline: unknown method %d", int(m))
	}

	if m.ACControl() {
		tAc, err := p.MaxSafeTAc(plan.On, plan.Loads)
		if err != nil {
			return nil, fmt.Errorf("baseline: %v infeasible at load %v: %w", m, load, err)
		}
		plan.TAcC = tAc
	} else {
		plan.TAcC = pl.fixedTAc
	}
	return plan, nil
}

// tAcForOff returns the supply command for an empty room: the fixed
// setting for no-AC methods, the warmest allowed otherwise.
func (pl *Planner) tAcForOff(m Method) units.Celsius {
	if !m.ACControl() {
		return pl.fixedTAc
	}
	return units.Celsius(pl.profile.TAcMaxC)
}

// evenPlan spreads the load uniformly over all machines.
func (pl *Planner) evenPlan(load float64) *core.Plan {
	n := pl.profile.Size()
	loads := make([]float64, n)
	on := make([]int, n)
	for i := range on {
		on[i] = i
		loads[i] = load / float64(n)
	}
	return &core.Plan{On: on, Loads: loads}
}

// bottomUpPlan is cool job allocation: fill machines to capacity coolest
// spot first. With consolidation, unused machines are powered off.
func (pl *Planner) bottomUpPlan(load float64, consolidate bool) *core.Plan {
	n := pl.profile.Size()
	loads := make([]float64, n)
	used := make([]bool, n)
	remaining := load
	for _, i := range pl.order() {
		if remaining <= 0 {
			break
		}
		l := remaining
		if l > 1 {
			l = 1
		}
		loads[i] = l
		used[i] = true
		remaining -= l
	}

	var on []int
	for i := 0; i < n; i++ {
		if !consolidate || used[i] {
			on = append(on, i)
		}
	}
	return &core.Plan{On: on, Loads: loads}
}
