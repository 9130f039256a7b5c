package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"coolopt/internal/mathx"
)

// solveBoundedMap is the reference active-set repair: SolveBounded as it
// was with a map of pinned machines and a fresh Solve (and loads slice)
// per round. It also reports how many closed-form rounds ran.
func solveBoundedMap(p *Profile, on []int, totalLoad float64) (*Plan, int, error) {
	if err := checkOnSet(on, p.Size()); err != nil {
		return nil, 0, err
	}
	if totalLoad > float64(len(on))+1e-9 {
		return nil, 0, fmt.Errorf("%w: load %v exceeds capacity of %d machines", ErrInfeasible, totalLoad, len(on))
	}
	pinned := make(map[int]float64)
	free := append([]int(nil), on...)
	rounds := 0
	for iter := 0; iter <= len(on); iter++ {
		residual := totalLoad
		for _, v := range pinned {
			residual -= v
		}
		if len(free) == 0 {
			break
		}
		if residual < 0 {
			residual = 0
		}
		rounds++
		plan, err := p.Solve(free, residual)
		if err != nil {
			return nil, rounds, err
		}
		violated := false
		for _, i := range free {
			if plan.Loads[i] < -1e-12 {
				pinned[i] = 0
				violated = true
			} else if plan.Loads[i] > 1+1e-12 {
				pinned[i] = 1
				violated = true
			}
		}
		if !violated {
			for i, v := range pinned {
				plan.Loads[i] = v
			}
			plan.On = append([]int(nil), on...)
			sort.Ints(plan.On)
			safe, err := p.MaxSafeTAc(plan.On, plan.Loads)
			if err != nil {
				return nil, rounds, fmt.Errorf("%w: %v", ErrInfeasible, err)
			}
			if safe < plan.TAcC {
				plan.TAcC = safe
				plan.Clamped = true
			}
			return plan, rounds, nil
		}
		next := free[:0]
		for _, i := range free {
			if _, ok := pinned[i]; !ok {
				next = append(next, i)
			}
		}
		free = next
	}
	loads := make([]float64, p.Size())
	var sum float64
	for i, v := range pinned {
		loads[i] = v
		sum += v
	}
	if math.Abs(sum-totalLoad) > 1e-6 {
		return nil, rounds, fmt.Errorf("%w: box constraints cannot absorb load %v", ErrInfeasible, totalLoad)
	}
	onCopy := append([]int(nil), on...)
	sort.Ints(onCopy)
	safe, err := p.MaxSafeTAc(onCopy, loads)
	if err != nil {
		return nil, rounds, fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	return &Plan{On: onCopy, Loads: loads, TAcC: safe, Clamped: true}, rounds, nil
}

// samePlanBits fails unless the two plans agree bit for bit.
func samePlanBits(t *testing.T, label string, got, want *Plan) {
	t.Helper()
	if math.Float64bits(float64(got.TAcC)) != math.Float64bits(float64(want.TAcC)) || got.Clamped != want.Clamped {
		t.Fatalf("%s: T_ac %v clamped %v, want %v clamped %v", label, got.TAcC, got.Clamped, want.TAcC, want.Clamped)
	}
	if fmt.Sprint(got.On) != fmt.Sprint(want.On) || len(got.Loads) != len(want.Loads) {
		t.Fatalf("%s: on %v (%d loads), want %v (%d loads)", label, got.On, len(got.Loads), want.On, len(want.Loads))
	}
	for i := range got.Loads {
		if math.Float64bits(got.Loads[i]) != math.Float64bits(want.Loads[i]) {
			t.Fatalf("%s: load[%d] = %v, want %v", label, i, got.Loads[i], want.Loads[i])
		}
	}
}

// spreadProfile is a room whose machines differ widely in K_i and α_i/β_i,
// so the closed form pushes the hottest machines below 0 at low load and
// the coolest above 1 at high load, and each pin shifts the surplus
// enough to push the next machines out of the box.
func spreadProfile(rng *mathx.Rand, n int) *Profile {
	machines := make([]MachineProfile, n)
	for i := range machines {
		machines[i] = MachineProfile{
			Alpha: rng.Uniform(0.5, 1.5),
			Beta:  rng.Uniform(0.2, 0.8),
			Gamma: rng.Uniform(-8, 12),
		}
	}
	return &Profile{
		W1: 52, W2: 34, CoolFactor: 150, SetPointC: 31,
		TMaxC: 65, TAcMinC: 5, TAcMaxC: 30,
		Machines: machines,
	}
}

// TestSolveBoundedActiveSetBitIdentical holds the dense active set to the
// map-based reference bit for bit (loads, supply temperature, on set and
// errors) across rooms and loads where the repair takes several pin
// rounds, and requires that such multi-round cases actually occur.
func TestSolveBoundedActiveSetBitIdentical(t *testing.T) {
	rng := mathx.NewRand(5)
	multi := 0
	for room := 0; room < 12; room++ {
		p := spreadProfile(rng, 8+rng.Intn(40))
		if err := p.Validate(); err != nil {
			t.Fatalf("room %d: %v", room, err)
		}
		n := p.Size()
		for q := 0; q <= 20; q++ {
			on := rng.Perm(n)[:1+rng.Intn(n)]
			load := float64(len(on)) * float64(q) / 20
			label := fmt.Sprintf("room %d on %d load %.3f", room, len(on), load)
			want, rounds, werr := solveBoundedMap(p, on, load)
			got, gerr := p.SolveBounded(on, load)
			if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
				t.Fatalf("%s: err %v, want %v", label, gerr, werr)
			}
			if werr != nil {
				continue
			}
			samePlanBits(t, label, got, want)
			if rounds >= 3 {
				multi++
			}
		}
	}
	if multi < 10 {
		t.Fatalf("only %d cases needed three or more pin rounds; the rooms no longer exercise the active set", multi)
	}
}

// TestSolveBoundedAllPinned covers the fall-through where one round
// pins every machine: two very different machines at load 1 can both
// leave the box at once (one above 1, one below 0), and the pins then
// absorb the load exactly. A load the pins cannot absorb is infeasible.
func TestSolveBoundedAllPinned(t *testing.T) {
	rng := mathx.NewRand(9)
	on := []int{0, 1}
	absorbed, rejected := 0, 0
	for trial := 0; trial < 200; trial++ {
		p := spreadProfile(rng, 2)
		for _, load := range []float64{1, 1.5} {
			want, rounds, werr := solveBoundedMap(p, on, load)
			got, gerr := p.SolveBounded(on, load)
			if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
				t.Fatalf("trial %d load %v: err %v, want %v", trial, load, gerr, werr)
			}
			if rounds != 1 {
				continue // not the one-round all-pinned shape
			}
			if werr != nil {
				if !errors.Is(gerr, ErrInfeasible) {
					t.Fatalf("trial %d load %v: err %v, want ErrInfeasible", trial, load, gerr)
				}
				rejected++
				continue
			}
			if l0, l1 := want.Loads[0], want.Loads[1]; l0+l1 == 1 && l0*l1 == 0 {
				absorbed++
			}
			samePlanBits(t, fmt.Sprintf("trial %d load %v", trial, load), got, want)
		}
	}
	if absorbed == 0 || rejected == 0 {
		t.Fatalf("all-pinned cases: %d absorbed, %d rejected; want both", absorbed, rejected)
	}
}
