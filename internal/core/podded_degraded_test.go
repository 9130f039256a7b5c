package core

import (
	"context"
	"errors"
	"math"
	"testing"
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

// TestPlanAvoidingSinglePodBitIdentical is the degraded p = 1 property:
// with one pod PlanAvoiding must reproduce the flat degraded solver
// (Profile.PlanOver over the survivors) bit for bit.
func TestPlanAvoidingSinglePodBitIdentical(t *testing.T) {
	const n = 64
	p := hierProfile(n)
	hier, err := NewPodSnapshot(p, 0, WithPodCount(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, avoid := range [][]int{{3}, {0, 1, 2, 3}, concentratedAvoid(n, 8), spreadAvoid(n, 8)} {
		blocked := make([]bool, n)
		for _, i := range avoid {
			blocked[i] = true
		}
		pool := survivorPool(n, blocked)
		for _, frac := range []float64{0.1, 0.4, 0.8} {
			load := frac * float64(len(pool))
			want := p.PlanOver(pool, load)
			if want == nil {
				t.Fatalf("flat degraded plan infeasible at load %v avoid %v", load, avoid)
			}
			got, err := hier.PlanAvoiding(load, avoid)
			if err != nil {
				t.Fatalf("PlanAvoiding(%v, %v): %v", load, avoid, err)
			}
			if len(got.On) != len(want.On) {
				t.Fatalf("load %v avoid %v: on sets sized %d vs %d", load, avoid, len(got.On), len(want.On))
			}
			for i := range got.On {
				if got.On[i] != want.On[i] {
					t.Fatalf("load %v avoid %v: on[%d] = %d vs %d", load, avoid, i, got.On[i], want.On[i])
				}
			}
			for i := range got.Loads {
				if math.Float64bits(got.Loads[i]) != math.Float64bits(want.Loads[i]) {
					t.Fatalf("load %v avoid %v: machine %d load not bit-identical", load, avoid, i)
				}
			}
			if math.Float64bits(float64(got.TAcC)) != math.Float64bits(float64(want.TAcC)) {
				t.Fatalf("load %v avoid %v: TAcC %v vs %v", load, avoid, got.TAcC, want.TAcC)
			}
		}
	}
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

// TestPlanOverCtx checks the cancellable flat degraded sweep: a live
// context reproduces PlanOver exactly, a cancelled one stops with the
// context's error.
func TestPlanOverCtx(t *testing.T) {
	const n = 64
	p := hierProfile(n)
	pool := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if i%7 != 0 {
			pool = append(pool, i)
		}
	}
	want := p.PlanOver(pool, 30)
	got, err := p.PlanOverCtx(context.Background(), pool, 30)
	if err != nil {
		t.Fatal(err)
	}
	if want == nil || got == nil {
		t.Fatalf("plans nil: %v vs %v", want, got)
	}
	for i := range got.Loads {
		if math.Float64bits(got.Loads[i]) != math.Float64bits(want.Loads[i]) {
			t.Fatalf("machine %d: PlanOverCtx differs from PlanOver", i)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.PlanOverCtx(ctx, pool, 30); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep: err = %v, want context.Canceled", err)
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
