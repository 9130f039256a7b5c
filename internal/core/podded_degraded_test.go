package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"coolopt/internal/mathx"
)

// concentratedAvoid fails f consecutive machines starting inside one pod
// region; spreadAvoid strides the failures evenly across the room. The
// two shapes bound the degraded planner's behavior: concentrated bursts
// gut one pod's aggregates, spread bursts touch every pod a little.
func concentratedAvoid(n, f int) []int {
	start := n / 3
	out := make([]int, f)
	for i := range out {
		out[i] = start + i
	}
	return out
}

func spreadAvoid(n, f int) []int {
	out := make([]int, f)
	for i := range out {
		out[i] = (i * n) / f
	}
	return out
}

// survivorRoom returns the profile of the room without the blocked
// machines and the survivors' IDs in the full room, ascending: survivor
// j of the small room is machine pool[j] of the full one.
func survivorRoom(p *Profile, blocked []bool) (*Profile, []int) {
	pool := survivorPool(p.Size(), blocked)
	q := *p
	q.Machines = make([]MachineProfile, len(pool))
	for j, id := range pool {
		q.Machines[j] = p.Machines[id]
	}
	return &q, pool
}

// liftPlan maps a plan of the survivor room back onto the full room's
// n machines.
func liftPlan(pl *Plan, pool []int, n int) *Plan {
	out := &Plan{On: make([]int, len(pl.On)), Loads: make([]float64, n), TAcC: pl.TAcC, Clamped: pl.Clamped}
	for i, j := range pl.On {
		out.On[i] = pool[j]
	}
	for j, l := range pl.Loads {
		out.Loads[pool[j]] = l
	}
	return out
}

// checkSurvivorPlan holds a degraded plan to the healthy plan of the
// survivor room, lifted back to full-room IDs: both infeasible, or the
// same on set, load bits and T_ac bits.
func checkSurvivorPlan(t *testing.T, label string, got *Plan, gerr error, want *Plan, werr error, pool []int, n int) {
	t.Helper()
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: degraded err %v, survivor-room err %v", label, gerr, werr)
	}
	if gerr == nil {
		samePlanBits(t, label, got, liftPlan(want, pool, n))
	}
}

// TestPlanAvoidingIsSurvivorRoomPlan is the degraded single-leaf
// property: a degraded request is the healthy problem over the
// survivors, so on a whole-room Snapshot and on a one-pod PodSnapshot
// PlanAvoiding(L, avoid) must return, bit for bit, the Plan(L) of the
// same topology built over the room without the avoided machines.
func TestPlanAvoidingIsSurvivorRoomPlan(t *testing.T) {
	// build returns a room's whole-room and one-pod snapshots.
	build := func(p *Profile) (*Snapshot, *PodSnapshot) {
		t.Helper()
		s, err := NewSnapshot(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		pods, err := NewPodSnapshot(p, 0, WithPodCount(1))
		if err != nil {
			t.Fatal(err)
		}
		return s, pods
	}
	rng := mathx.NewRand(22)
	for _, n := range []int{6, 10, 64, 256, 1024} {
		p := hierProfile(n)
		snap, pods := build(p)
		for set := 0; set < 3; set++ {
			blocked := make([]bool, n)
			avoid := rng.Perm(n)[:1+rng.Intn(max(1, n/4))]
			for _, id := range avoid {
				blocked[id] = true
			}
			room, pool := survivorRoom(p, blocked)
			roomSnap, roomPods := build(room)
			for l := 0; l < 5; l++ {
				load := rng.Uniform(0.05, 0.97) * float64(len(pool))
				label := fmt.Sprintf("n=%d avoid %v load %v", n, avoid, load)
				got, gerr := snap.PlanAvoiding(load, avoid)
				want, werr := roomSnap.Plan(load)
				checkSurvivorPlan(t, "snapshot "+label, got, gerr, want, werr, pool, n)
				got, gerr = pods.PlanAvoiding(load, avoid)
				want, werr = roomPods.Plan(load)
				checkSurvivorPlan(t, "one pod "+label, got, gerr, want, werr, pool, n)
				if gerr != nil {
					t.Fatalf("one pod %s: %v", label, gerr)
				}
			}
		}
	}
}

// FuzzPlanAvoiding holds the degraded single leaf to the same oracle on
// small adversarial rooms: a gridReduced room of at most ten machines,
// optionally nudged by single ulps, turned into a profile with β_i = 1,
// and a random non-empty survivor mask. The oracle is the table-free
// one-pod snapshot of the survivor room; kinetic tables are no oracle on
// nudged rooms, whose sweep can keep stale pieces across near-ties.
func FuzzPlanAvoiding(f *testing.F) {
	f.Add(int64(1), uint8(6), false, uint16(0x2d), uint16(3))
	f.Add(int64(2), uint8(9), true, uint16(0x1fe), uint16(40))
	f.Add(int64(3), uint8(3), true, uint16(0x4), uint16(7))
	f.Fuzz(func(t *testing.T, seed int64, size uint8, nudge bool, mask, pick uint16) {
		rng := mathx.NewRand(seed)
		n := 1 + int(size%10)
		r := gridReduced(rng, n)
		if nudge {
			for i := range r.Pairs {
				if rng.Intn(2) == 0 {
					r.Pairs[i].A = math.Nextafter(r.Pairs[i].A, math.Inf(1))
				}
			}
		}
		lo := float64(rng.Intn(8)) / 4
		p := &Profile{W1: r.W1, W2: r.W2, CoolFactor: 1 + float64(rng.Intn(8))/4, SetPointC: lo + float64(rng.Intn(40))/4,
			TMaxC: 64, TAcMinC: lo, TAcMaxC: lo + float64(1+rng.Intn(32))/4, Machines: make([]MachineProfile, n)}
		for i, pr := range r.Pairs {
			p.Machines[i] = MachineProfile{Alpha: pr.B, Beta: 1, Gamma: p.TMaxC - p.W2 - pr.A*p.W1}
		}
		if p.Validate() != nil {
			return
		}
		blocked := make([]bool, n)
		var avoid []int
		for i := 0; i < n; i++ {
			if mask>>i&1 == 1 {
				blocked[i] = true
				avoid = append(avoid, i)
			}
		}
		if len(avoid) == n {
			return
		}
		full, err := NewPodSnapshot(p, 0, WithPodCount(1))
		if err != nil {
			t.Fatal(err)
		}
		room, pool := survivorRoom(p, blocked)
		surv, err := NewPodSnapshot(room, 0, WithPodCount(1))
		if err != nil {
			t.Fatal(err)
		}
		loads := sweepLoads(rng, len(pool), 1)
		load := loads[int(pick)%len(loads)]
		got, gerr := full.PlanAvoiding(load, avoid)
		want, werr := surv.Plan(load)
		checkSurvivorPlan(t, fmt.Sprintf("n=%d avoid %v load %v", n, avoid, load), got, gerr, want, werr, pool, n)
	})
}

// TestPlanAvoidingGapBound measures the degraded hierarchical plan
// against the exact degraded solver across avoid-set sizes, burst
// shapes, and loads, and enforces the same bound as the healthy path:
// mean ≤ 1 %, worst ≤ 5 %. Negative gaps (the hierarchy beating the
// prefix-sweep reference, which is itself a heuristic over pool
// prefixes) count as zero. Every plan must also keep the avoided
// machines off and validate against the model.
func TestPlanAvoidingGapBound(t *testing.T) {
	sizes := []int{256, 512}
	if !testing.Short() && !raceEnabled {
		sizes = append(sizes, 1024)
	}
	for _, n := range sizes {
		p := hierProfile(n)
		hier, err := NewPodSnapshot(p, 0, WithPodSize(hierPodSize(n)))
		if err != nil {
			t.Fatal(err)
		}
		var sum, worst float64
		var count int
		for _, f := range []int{1, 8, n / 16, n / 8} {
			for _, shape := range []func(int, int) []int{concentratedAvoid, spreadAvoid} {
				avoid := shape(n, f)
				blocked := make([]bool, n)
				for _, i := range avoid {
					blocked[i] = true
				}
				pool := survivorPool(n, blocked)
				for _, frac := range []float64{0.15, 0.4, 0.65, 0.9} {
					load := frac * float64(len(pool))
					want := p.PlanOver(pool, load)
					if want == nil {
						t.Fatalf("n=%d f=%d: flat degraded plan infeasible at load %v", n, f, load)
					}
					got, err := hier.PlanAvoiding(load, avoid)
					if err != nil {
						t.Fatalf("n=%d f=%d load %v: %v", n, f, load, err)
					}
					for _, i := range got.On {
						if blocked[i] {
							t.Fatalf("n=%d f=%d load %v: avoided machine %d is on", n, f, load, i)
						}
					}
					if err := p.ValidatePlan(got, load, 1e-6); err != nil {
						t.Fatalf("n=%d f=%d load %v: invalid plan: %v", n, f, load, err)
					}
					gap := float64(p.PlanPower(got)-p.PlanPower(want)) / float64(p.PlanPower(want))
					if gap < 0 {
						gap = 0
					}
					if gap > worst {
						worst = gap
					}
					sum += gap
					count++
				}
			}
		}
		mean := sum / float64(count)
		t.Logf("n=%d pods=%d: degraded gap mean %.4f%% worst %.4f%% over %d cases",
			n, hier.Pods(), 100*mean, 100*worst, count)
		if worst > 0.05 {
			t.Fatalf("n=%d: worst degraded gap %.4f%% exceeds 5%%", n, 100*worst)
		}
		if mean > 0.01 {
			t.Fatalf("n=%d: mean degraded gap %.4f%% exceeds 1%%", n, 100*mean)
		}
	}
}

// TestPlanAvoidingValidation covers the degraded input edges: empty
// avoid delegates to Plan, out-of-range IDs are rejected, duplicate IDs
// collapse, and loads beyond the survivor count are ErrInfeasible so the
// serving layer knows to shed.
func TestPlanAvoidingValidation(t *testing.T) {
	const n = 64
	p := hierProfile(n)
	hier, err := NewPodSnapshot(p, 0, WithPodSize(16))
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := hier.Plan(20)
	if err != nil {
		t.Fatal(err)
	}
	viaNil, err := hier.PlanAvoiding(20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaNil.On) != len(healthy.On) {
		t.Fatalf("PlanAvoiding(load, nil) picked %d machines, Plan picked %d", len(viaNil.On), len(healthy.On))
	}
	for i := range viaNil.Loads {
		if math.Float64bits(viaNil.Loads[i]) != math.Float64bits(healthy.Loads[i]) {
			t.Fatalf("PlanAvoiding(load, nil) differs from Plan at machine %d", i)
		}
	}

	if _, err := hier.PlanAvoiding(10, []int{-1}); err == nil {
		t.Fatal("negative avoid ID accepted")
	}
	if _, err := hier.PlanAvoiding(10, []int{n}); err == nil {
		t.Fatal("avoid ID ≥ n accepted")
	}
	dup, err := hier.PlanAvoiding(10, []int{5, 5, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range dup.On {
		if i == 5 || i == 9 {
			t.Fatalf("avoided machine %d is on", i)
		}
	}
	if _, err := hier.PlanAvoiding(float64(n)-1, spreadAvoid(n, 8)); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("load beyond survivors: err = %v, want ErrInfeasible", err)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	if _, err := hier.PlanAvoiding(1, all); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("all machines avoided: err = %v, want ErrInfeasible", err)
	}
	if _, err := hier.PlanAvoiding(0, []int{3}); err == nil {
		t.Fatal("zero load accepted")
	}
}

// TestPlanAvoidingDeterministic: same inputs, same plan, across repeated
// calls (the degraded path shares the healthy path's determinism
// obligations — it serves from concurrent request handlers).
func TestPlanAvoidingDeterministic(t *testing.T) {
	const n = 256
	hier, err := NewPodSnapshot(hierProfile(n), 0, WithPodSize(32))
	if err != nil {
		t.Fatal(err)
	}
	avoid := concentratedAvoid(n, 24)
	first, err := hier.PlanAvoiding(120, avoid)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		again, err := hier.PlanAvoiding(120, avoid)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.On) != len(first.On) {
			t.Fatalf("rep %d: on-set size %d vs %d", rep, len(again.On), len(first.On))
		}
		for i := range again.Loads {
			if math.Float64bits(again.Loads[i]) != math.Float64bits(first.Loads[i]) {
				t.Fatalf("rep %d: machine %d load differs", rep, i)
			}
		}
	}
}

// TestHierarchicalMaxLoadGapBound quantifies the pod-composed budget
// query against the exact table answer across a budget sweep: the
// shortfall (exact load − hierarchical load, relative) must stay within
// the same mean ≤ 1 % / worst ≤ 5 % bound the Plan gap is held to.
func TestHierarchicalMaxLoadGapBound(t *testing.T) {
	const n = 256
	p := hierProfile(n)
	exact, err := NewSnapshot(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := NewPodSnapshot(p, 0, WithPodSize(hierPodSize(n)))
	if err != nil {
		t.Fatal(err)
	}
	var sum, worst float64
	var count int
	unit := float64(n) * (52 + 34)
	for _, frac := range []float64{0.2, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0} {
		budget := frac*unit + 150*21
		want, err := exact.Tables().MaxLoad(budget)
		if err != nil {
			t.Fatalf("exact maxload(%v): %v", budget, err)
		}
		got, err := hier.MaxLoad(budget)
		if err != nil {
			t.Fatalf("hierarchical maxload(%v): %v", budget, err)
		}
		if got.Load > want.Load*(1+1e-9)+1e-9 {
			t.Fatalf("budget %v: hierarchical load %v beats exact %v", budget, got.Load, want.Load)
		}
		gap := (want.Load - got.Load) / want.Load
		if gap < 0 {
			gap = 0
		}
		if gap > worst {
			worst = gap
		}
		sum += gap
		count++
	}
	mean := sum / float64(count)
	t.Logf("n=%d pods=%d: maxload gap mean %.4f%% worst %.4f%%", n, hier.Pods(), 100*mean, 100*worst)
	if worst > 0.05 {
		t.Fatalf("worst maxload gap %.4f%% exceeds 5%%", 100*worst)
	}
	if mean > 0.01 {
		t.Fatalf("mean maxload gap %.4f%% exceeds 1%%", 100*mean)
	}
}

// TestHierarchicalConsolidateGapBound quantifies the hierarchical
// consolidation answer against the exact tables, with the same mean
// ≤ 1 % / worst ≤ 5 % gate. The comparison metric is the clamped room
// power of each subset — the raw Selection.Power is the paper's
// unclamped Eq. 23 score, which rewards supply temperatures the
// actuator cannot reach and so is not comparable across selectors that
// clamp differently. A negative gap (the exact tables' unclamped pick
// costing more once clamped) counts as zero.
func TestHierarchicalConsolidateGapBound(t *testing.T) {
	const n = 256
	p := hierProfile(n)
	exact, err := NewSnapshot(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := NewPodSnapshot(p, 0, WithPodSize(hierPodSize(n)))
	if err != nil {
		t.Fatal(err)
	}
	room := p.Reduce()
	clampedPower := func(subset []int, load float64) float64 {
		var sumA, sumB float64
		for _, i := range subset {
			sumA += room.Pairs[i].A
			sumB += room.Pairs[i].B
		}
		t := (sumA - load) / sumB
		tAc := p.W1 * t
		if tAc > p.TAcMaxC {
			tAc = p.TAcMaxC
		}
		if tAc < p.TAcMinC {
			tAc = p.TAcMinC // subsets below the actuator floor cannot really serve; score at the floor
		}
		cooling := p.CoolFactor * (p.SetPointC - tAc)
		if cooling < 0 {
			cooling = 0
		}
		return cooling + p.W1*load + float64(len(subset))*p.W2
	}
	var sum, worst float64
	var count int
	for _, frac := range []float64{0.05, 0.15, 0.3, 0.5, 0.7, 0.85} {
		load := frac * float64(n)
		// minK = ⌈load⌉ keeps both selectors on subsets that can
		// physically carry the load; the raw tables otherwise return
		// unclamped-score winners below capacity at high loads.
		minK := int(math.Ceil(load))
		want, err := exact.Tables().QueryExact(load, minK)
		if err != nil {
			t.Fatalf("exact consolidate(%v): %v", load, err)
		}
		got, err := hier.Consolidate(load, minK)
		if err != nil {
			t.Fatalf("hierarchical consolidate(%v): %v", load, err)
		}
		wantW := clampedPower(want.Subset, load)
		gotW := clampedPower(got.Subset, load)
		gap := (gotW - wantW) / wantW
		if gap < 0 {
			gap = 0
		}
		if gap > worst {
			worst = gap
		}
		sum += gap
		count++
	}
	mean := sum / float64(count)
	t.Logf("n=%d pods=%d: consolidate gap mean %.4f%% worst %.4f%%", n, hier.Pods(), 100*mean, 100*worst)
	if worst > 0.05 {
		t.Fatalf("worst consolidate gap %.4f%% exceeds 5%%", 100*worst)
	}
	if mean > 0.01 {
		t.Fatalf("mean consolidate gap %.4f%% exceeds 1%%", 100*mean)
	}
}
