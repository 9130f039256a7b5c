package core

import (
	"math"
	"testing"

	"coolopt/internal/mathx"
)

// hierProfile builds a heterogeneous room in the paper's parameter regime
// with deterministic per-machine jitter, large enough that pods see
// genuinely different machine mixes.
func hierProfile(n int) *Profile {
	machines := make([]MachineProfile, n)
	for i := range machines {
		h := float64(i) / float64(n)
		jitter := 0.05 * math.Sin(float64(i)*2.399963)
		machines[i] = MachineProfile{
			Alpha: 1.0,
			Beta:  0.46 * (1 + 0.1*h + jitter),
			Gamma: 0.5 + 2.2*h - 10*jitter,
		}
	}
	return &Profile{
		W1: 52, W2: 34, CoolFactor: 150, SetPointC: 31,
		TMaxC: 65, TAcMinC: 10, TAcMaxC: 25,
		Machines: machines,
	}
}

// hierPodSize keeps p = 16 pods at the sizes the gap bound is declared
// for (p = 4 below 256 machines, where 16 pods would be degenerate).
func hierPodSize(n int) int {
	if n < 256 {
		return n / 4
	}
	return n / 16
}

// TestPodSnapshotSinglePodMatchesExact is the p = 1 equivalence property:
// one pod means the allocator hands the whole load to the whole room and
// the pod's scoring bounds are the profile's own, so the hierarchical
// planner must reproduce the flat planner bit for bit.
func TestPodSnapshotSinglePodMatchesExact(t *testing.T) {
	const n = 64
	p := hierProfile(n)
	exact, err := NewSnapshot(p, 0, WithPreprocessWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	hier, err := NewPodSnapshot(p, 0, WithPodCount(1))
	if err != nil {
		t.Fatal(err)
	}
	if hier.Pods() != 1 {
		t.Fatalf("pod count = %d, want 1", hier.Pods())
	}
	for _, frac := range []float64{0.03, 0.1, 0.25, 0.5, 0.75, 0.9} {
		load := frac * n
		want, err := exact.Plan(load)
		if err != nil {
			t.Fatalf("exact plan load %v: %v", load, err)
		}
		got, err := hier.Plan(load)
		if err != nil {
			t.Fatalf("hierarchical plan load %v: %v", load, err)
		}
		if len(got.On) != len(want.On) {
			t.Fatalf("load %v: on sets sized %d vs %d", load, len(got.On), len(want.On))
		}
		for i := range got.On {
			if got.On[i] != want.On[i] {
				t.Fatalf("load %v: on[%d] = %d vs %d", load, i, got.On[i], want.On[i])
			}
		}
		for i := range got.Loads {
			if math.Float64bits(got.Loads[i]) != math.Float64bits(want.Loads[i]) {
				t.Fatalf("load %v: machine %d load %v vs %v (not bit-identical)",
					load, i, got.Loads[i], want.Loads[i])
			}
		}
		if math.Float64bits(float64(got.TAcC)) != math.Float64bits(float64(want.TAcC)) {
			t.Fatalf("load %v: TAcC %v vs %v", load, got.TAcC, want.TAcC)
		}
	}
}

// TestHierarchicalGapBound measures the hierarchical planner's optimality
// gap against the exact planner across a load sweep and enforces the
// declared bound: mean ≤ 1 %, worst case ≤ 5 %, and the hierarchy never
// beats the exact optimum (which would mean the exact planner is broken).
func TestHierarchicalGapBound(t *testing.T) {
	sizes := []int{64, 256, 1024}
	if !testing.Short() && !raceEnabled {
		sizes = append(sizes, 4096)
	}
	for _, n := range sizes {
		p := hierProfile(n)
		exact, err := NewSnapshot(p, 0, WithMaxMachines(n))
		if err != nil {
			t.Fatal(err)
		}
		hier, err := NewPodSnapshot(p, 0, WithPodSize(hierPodSize(n)))
		if err != nil {
			t.Fatal(err)
		}
		var sum, worst float64
		var count int
		for _, frac := range []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9} {
			load := frac * float64(n)
			want, err := exact.Plan(load)
			if err != nil {
				t.Fatalf("n=%d exact plan load %v: %v", n, load, err)
			}
			got, err := hier.Plan(load)
			if err != nil {
				t.Fatalf("n=%d hierarchical plan load %v: %v", n, load, err)
			}
			exactW := float64(p.PlanPower(want))
			hierW := float64(p.PlanPower(got))
			gap := (hierW - exactW) / exactW
			if gap < -1e-9 {
				t.Fatalf("n=%d load %v: hierarchical %v W beats exact %v W", n, load, hierW, exactW)
			}
			if gap > worst {
				worst = gap
			}
			sum += gap
			count++
		}
		mean := sum / float64(count)
		t.Logf("n=%d pods=%d: gap mean %.4f%% worst %.4f%%", n, hier.Pods(), 100*mean, 100*worst)
		if worst > 0.05 {
			t.Fatalf("n=%d: worst gap %.4f%% exceeds 5%%", n, 100*worst)
		}
		if mean > 0.01 {
			t.Fatalf("n=%d: mean gap %.4f%% exceeds 1%%", n, 100*mean)
		}
	}
}

// TestHierarchicalMaxLoad checks the composed budget query: never better
// than the exact answer, self-consistent with the power model, and not
// far behind.
func TestHierarchicalMaxLoad(t *testing.T) {
	const n = 256
	p := hierProfile(n)
	exact, err := NewSnapshot(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := NewPodSnapshot(p, 0, WithPodSize(16))
	if err != nil {
		t.Fatal(err)
	}
	room := p.Reduce()
	for _, budget := range []float64{
		0.2 * float64(n) * (52 + 34),
		0.5 * float64(n) * (52 + 34),
		float64(n)*(52+34) + 150*21,
	} {
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
		if got.Load < 0.8*want.Load {
			t.Fatalf("budget %v: hierarchical load %v under 80%% of exact %v", budget, got.Load, want.Load)
		}
		power, err := room.SubsetPower(got.Subset, got.Load)
		if err != nil {
			t.Fatal(err)
		}
		if power > budget*(1+1e-9)+1e-6 {
			t.Fatalf("budget %v: reported point draws %v W", budget, power)
		}
		for i := 1; i < len(got.Subset); i++ {
			if got.Subset[i] <= got.Subset[i-1] {
				t.Fatalf("budget %v: subset not strictly ascending at %d", budget, i)
			}
		}
	}
}

// TestPodConsolidateTopUp checks the minK floor: when the hierarchical
// union is smaller than minK the result is topped up deterministically.
func TestPodConsolidateTopUp(t *testing.T) {
	const n = 64
	hier, err := NewPodSnapshot(hierProfile(n), 0, WithPodSize(16))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := hier.Consolidate(2, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Subset) != 40 {
		t.Fatalf("consolidate(2, minK=40) picked %d machines", len(sel.Subset))
	}
	for i := 1; i < len(sel.Subset); i++ {
		if sel.Subset[i] <= sel.Subset[i-1] {
			t.Fatalf("subset not strictly ascending at %d", i)
		}
	}
	if math.IsNaN(sel.Power) || math.IsInf(sel.Power, 0) {
		t.Fatalf("power = %v", sel.Power)
	}
	again, err := hier.Consolidate(2, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sel.Subset {
		if sel.Subset[i] != again.Subset[i] {
			t.Fatal("top-up not deterministic")
		}
	}
}

// TestPodSnapshotValidation covers the input edges: bad loads, pod-count
// clamping, and the epoch tag.
func TestPodSnapshotValidation(t *testing.T) {
	hier, err := NewPodSnapshot(hierProfile(8), 9, WithPodCount(1000))
	if err != nil {
		t.Fatal(err)
	}
	if hier.Epoch() != 9 {
		t.Fatalf("epoch = %d, want 9", hier.Epoch())
	}
	if hier.Pods() != 8 {
		t.Fatalf("pod count %d not clamped to 8 machines", hier.Pods())
	}
	if _, err := hier.Plan(0); err == nil {
		t.Fatal("zero load accepted")
	}
	if _, err := hier.Plan(-3); err == nil {
		t.Fatal("negative load accepted")
	}
	if _, err := hier.Plan(9); err == nil {
		t.Fatal("over-capacity load accepted")
	}
	if hier.Events() != 0 || hier.TableBytes() != 0 {
		t.Fatalf("table-free pods report %d events, %d table bytes", hier.Events(), hier.TableBytes())
	}
	if _, err := NewPodSnapshot(&Profile{}, 0); err == nil {
		t.Fatal("invalid profile accepted")
	}
}

// BenchmarkPodBuild times NewPodSnapshot on a 65 536-machine hierProfile
// room in 128 pods of 512 — cold-large's room: the profile copy, the
// room reduction and the leaves' pairs and aggregates.
func BenchmarkPodBuild(b *testing.B) {
	p := hierProfile(65536)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewPodSnapshot(p, 0, WithPodSize(512)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdPodPlan times cold PodSnapshot.Plan calls on a
// 65 536-machine hierProfile room in 128 pods of 512 — the room size of
// perfbench's cold-large workload — cycling 97 loads over 5–95 % of
// capacity. A snapshot holds no plan cache, so every call is cold.
func BenchmarkColdPodPlan(b *testing.B) {
	const n = 65536
	ps, err := NewPodSnapshot(hierProfile(n), 0, WithPodSize(512))
	if err != nil {
		b.Fatal(err)
	}
	loads := make([]float64, 97)
	for i := range loads {
		loads[i] = (0.05 + 0.9*float64(i)/96) * n
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ps.Plan(loads[i%len(loads)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPodPatch times PodSnapshot.Patch on the same room as
// BenchmarkColdPodPlan with 16 machines drifted in one pod, the pod
// cycling over all 128: the room pair copy, B_total, one touched leaf's
// pairs and sums and every leaf's share-scaled scalars.
func BenchmarkPodPatch(b *testing.B) {
	const n, pods, k = 65536, 128, 16
	p := hierProfile(n)
	ps, err := NewPodSnapshot(p, 0, WithPodCount(pods))
	if err != nil {
		b.Fatal(err)
	}
	rng := mathx.NewRand(5)
	batches := make([][]MachineDelta, pods)
	for j := range batches {
		batches[j] = podBatch(rng, p, j*(n/pods), n/pods, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ps.Patch(batches[i%pods]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPodMaxLoad times PodSnapshot.MaxLoad on the same room as
// BenchmarkColdPodPlan, cycling 16 budgets over 5–95 % of the all-on
// power at the set point: 128 budget leaves, then the room's exact
// boundary over their union.
func BenchmarkPodMaxLoad(b *testing.B) {
	const n = 65536
	p := hierProfile(n)
	ps, err := NewPodSnapshot(p, 0, WithPodSize(512))
	if err != nil {
		b.Fatal(err)
	}
	budgets := make([]float64, 16)
	for i := range budgets {
		budgets[i] = (0.05 + 0.9*float64(i)/15) * (n*(p.W1+p.W2) + p.CoolFactor*p.SetPointC)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ps.MaxLoad(budgets[i%len(budgets)]); err != nil {
			b.Fatal(err)
		}
	}
}
