package core

import (
	"errors"
	"math"
	"testing"

	"coolopt/internal/mathx"
)

// This file is the differential half of the incremental-maintenance
// contract: across randomized drift sequences, Patch must reproduce a
// from-scratch rebuild of the patched profile byte for byte — tables,
// arena ranks, aggregates, and the plans computed on them. "Incremental
// equals rebuild" is exactly the kind of invariant that silently rots, so
// the battery runs chained epochs (each patch applied on top of the
// previous patch's output, never on a fresh rebuild) to catch drift that
// compounds.

// driftBatch picks k distinct machines and perturbs their Eq. 8
// coefficients within the validity envelope (α, β > 0 and K_i > 0 for
// the paper-regime rooms the battery uses).
func driftBatch(rng *mathx.Rand, p *Profile, k int) []MachineDelta {
	return podBatch(rng, p, 0, p.Size(), k)
}

// podBatch is driftBatch confined to the ID range [lo, lo+size): k
// distinct machines of the range (all of it when k ≥ size).
func podBatch(rng *mathx.Rand, p *Profile, lo, size, k int) []MachineDelta {
	if k > size {
		k = size
	}
	out := make([]MachineDelta, 0, k)
	for _, off := range rng.Perm(size)[:k] {
		m := p.Machines[lo+off]
		m.Alpha *= rng.Uniform(0.97, 1.03)
		m.Beta *= rng.Uniform(0.95, 1.05)
		m.Gamma += rng.Uniform(-0.5, 0.5)
		out = append(out, MachineDelta{ID: lo + off, Machine: m})
	}
	return out
}

// applyBatch mirrors a drift batch onto a plain profile copy, the input
// of the from-scratch rebuild the patch is compared against.
func applyBatch(p *Profile, batch []MachineDelta) *Profile {
	next := *p
	next.Machines = append([]MachineProfile(nil), p.Machines...)
	for _, d := range batch {
		next.Machines[d.ID] = d.Machine
	}
	return &next
}

// bitsEqualFloats fails the test at the first float slice entry whose bits
// differ.
func bitsEqualFloats(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v vs %v (not bit-identical)", label, i, got[i], want[i])
		}
	}
}

func equalInts(t *testing.T, label string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d vs %d", label, i, got[i], want[i])
		}
	}
}

func equalInt32s(t *testing.T, label string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d vs %d", label, i, got[i], want[i])
		}
	}
}

// equalTables asserts every retained query structure is byte-identical:
// event grid, segment-piece arena, and the pairs front sets select. The
// retained crossing list is deliberately NOT compared — a patch's merge
// may permute exact-time ties relative to a fresh full sort, which the
// sweep provably cannot observe; the t-sequence equality is implied by
// the event grid.
func equalTables(t *testing.T, label string, got, want *Preprocessed) {
	t.Helper()
	bitsEqualFloats(t, label+" events", got.events, want.events)
	equalInts(t, label+" segOff", got.segOff, want.segOff)
	equalInt32s(t, label+" segEvent", got.segEvent, want.segEvent)
	bitsEqualFloats(t, label+" segA", got.segA, want.segA)
	bitsEqualFloats(t, label+" segB", got.segB, want.segB)
	equalPairs(t, label, got.reduced.Pairs, want.reduced.Pairs)
}

// equalPairs asserts two pair slices are bit-identical.
func equalPairs(t *testing.T, label string, gp, wp []Pair) {
	t.Helper()
	if len(gp) != len(wp) {
		t.Fatalf("%s pairs: length %d vs %d", label, len(gp), len(wp))
	}
	for i := range gp {
		if math.Float64bits(gp[i].A) != math.Float64bits(wp[i].A) ||
			math.Float64bits(gp[i].B) != math.Float64bits(wp[i].B) {
			t.Fatalf("%s pair %d = %+v vs %+v", label, i, gp[i], wp[i])
		}
	}
}

// equalPlans asserts two plans are byte-identical: on set, per-machine
// load split, and supply temperature.
func equalPlans(t *testing.T, label string, got, want *Plan) {
	t.Helper()
	equalInts(t, label+" on", got.On, want.On)
	bitsEqualFloats(t, label+" loads", got.Loads, want.Loads)
	if math.Float64bits(float64(got.TAcC)) != math.Float64bits(float64(want.TAcC)) {
		t.Fatalf("%s TAcC %v vs %v", label, got.TAcC, want.TAcC)
	}
}

// checkFlatAgainstRebuild compares a patched snapshot against a fresh
// NewSnapshot over the same profile: tables and a plan sweep.
func checkFlatAgainstRebuild(t *testing.T, label string, got *Snapshot, p *Profile, epoch uint64) {
	t.Helper()
	want, err := NewSnapshot(p, epoch, WithPreprocessWorkers(1))
	if err != nil {
		t.Fatalf("%s rebuild: %v", label, err)
	}
	if got.Epoch() != epoch {
		t.Fatalf("%s epoch = %d, want %d", label, got.Epoch(), epoch)
	}
	equalTables(t, label, got.pre, want.pre)
	n := p.Size()
	for _, frac := range []float64{0.1, 0.45, 0.8} {
		load := frac * float64(n)
		gp, gerr := got.Plan(load)
		wp, werr := want.Plan(load)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s load %v: err %v vs %v", label, load, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		equalPlans(t, label, gp, wp)
	}
}

// TestPatchMatchesRebuildFlat is the flat differential battery: chained
// randomized drift epochs with k ∈ {1, 16, all} against from-scratch
// rebuilds, across multiple seeds.
func TestPatchMatchesRebuildFlat(t *testing.T) {
	const n = 96
	epochs := 50
	if testing.Short() || raceEnabled {
		epochs = 12
	}
	ks := []int{1, 16, 256} // 256 clips to n: the all-machines drift case
	for _, seed := range []int64{1, 2, 3} {
		rng := mathx.NewRand(seed)
		profile := hierProfile(n)
		cur, err := NewSnapshot(profile, 0, WithPatchSupport(), WithPreprocessWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		if !cur.PatchSupported() {
			t.Fatal("WithPatchSupport did not retain crossings")
		}
		for e := 0; e < epochs; e++ {
			batch := driftBatch(rng, profile, ks[e%len(ks)])
			profile = applyBatch(profile, batch)
			next, err := cur.Patch(batch, WithPreprocessWorkers(1))
			if err != nil {
				t.Fatalf("seed %d epoch %d: patch: %v", seed, e, err)
			}
			checkFlatAgainstRebuild(t, "flat", next, profile, uint64(e+1))
			if !next.PatchSupported() {
				t.Fatalf("seed %d epoch %d: patched snapshot lost patch support", seed, e)
			}
			cur = next
		}
	}
}

// TestPatchMatchesRebuildPods is the pod-level differential battery:
// chained drift epochs against from-scratch NewPodSnapshot rebuilds,
// comparing every pod's pairs, aggregates, and the hierarchical plans.
func TestPatchMatchesRebuildPods(t *testing.T) {
	const n, pods = 128, 8
	epochs := 50
	if testing.Short() || raceEnabled {
		epochs = 12
	}
	ks := []int{1, 16, 256}
	for _, seed := range []int64{1, 2, 3} {
		rng := mathx.NewRand(seed)
		profile := hierProfile(n)
		cur, err := NewPodSnapshot(profile, 0, WithPodCount(pods))
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < epochs; e++ {
			batch := driftBatch(rng, profile, ks[e%len(ks)])
			profile = applyBatch(profile, batch)
			next, err := cur.Patch(batch)
			if err != nil {
				t.Fatalf("seed %d epoch %d: patch: %v", seed, e, err)
			}
			want, err := NewPodSnapshot(profile, uint64(e+1), WithPodCount(pods))
			if err != nil {
				t.Fatalf("seed %d epoch %d: rebuild: %v", seed, e, err)
			}
			if next.Epoch() != uint64(e+1) {
				t.Fatalf("epoch = %d, want %d", next.Epoch(), e+1)
			}
			if next.Pods() != want.Pods() {
				t.Fatalf("pods = %d, want %d", next.Pods(), want.Pods())
			}
			if math.Float64bits(next.totalB) != math.Float64bits(want.totalB) {
				t.Fatalf("totalB %v vs %v", next.totalB, want.totalB)
			}
			for j := range next.pods {
				g, w := next.pods[j], want.pods[j]
				equalInts(t, "pod ids", g.ids, w.ids)
				if math.Float64bits(g.sumA) != math.Float64bits(w.sumA) ||
					math.Float64bits(g.sumB) != math.Float64bits(w.sumB) ||
					math.Float64bits(g.share) != math.Float64bits(w.share) {
					t.Fatalf("pod %d aggregates (%v,%v,%v) vs (%v,%v,%v)",
						j, g.sumA, g.sumB, g.share, w.sumA, w.sumB, w.share)
				}
				equalPairs(t, "pod pairs", g.reduced.Pairs, w.reduced.Pairs)
				if math.Float64bits(g.reduced.Rho) != math.Float64bits(w.reduced.Rho) ||
					math.Float64bits(g.reduced.CoolFactor) != math.Float64bits(w.reduced.CoolFactor) {
					t.Fatalf("pod %d reduced scalars differ", j)
				}
			}
			for _, frac := range []float64{0.1, 0.45, 0.8} {
				load := frac * float64(n)
				gp, gerr := next.Plan(load)
				wp, werr := want.Plan(load)
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("load %v: err %v vs %v", load, gerr, werr)
				}
				if gerr != nil {
					continue
				}
				equalPlans(t, "pod plan", gp, wp)
			}
			cur = next
		}
	}
}

// TestPatchMatchesRebuildLarge runs one differential epoch at the
// whole-room cap (n = 4096, k = 16 drifted) for both table forms. Gated
// out of race runs like the other n = 4096 sweeps: the detector's ~10×
// slowdown buys nothing on single-threaded arithmetic.
func TestPatchMatchesRebuildLarge(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("n=4096 differential skipped in -short/-race runs")
	}
	const n, k = 4096, 16
	profile := hierProfile(n)
	rng := mathx.NewRand(11)
	batch := driftBatch(rng, profile, k)
	patched := applyBatch(profile, batch)

	// Worker counts pinned to 1 on the flat path: block boundaries shift
	// prefix-sum accumulation order, so cross-worker-count bit-identity is
	// not part of the contract (see WithPreprocessWorkers).
	flat, err := NewSnapshot(profile, 0, WithPatchSupport(), WithPreprocessWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := flat.Patch(batch, WithPreprocessWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	checkFlatAgainstRebuild(t, "flat n=4096", got, patched, 1)

	pods, err := NewPodSnapshot(profile, 0, WithPodCount(16))
	if err != nil {
		t.Fatal(err)
	}
	gotPods, err := pods.Patch(batch)
	if err != nil {
		t.Fatal(err)
	}
	wantPods, err := NewPodSnapshot(patched, 1, WithPodCount(16))
	if err != nil {
		t.Fatal(err)
	}
	for j := range gotPods.pods {
		equalPairs(t, "pod n=4096", gotPods.pods[j].reduced.Pairs, wantPods.pods[j].reduced.Pairs)
	}
	for _, frac := range []float64{0.1, 0.45, 0.8} {
		load := frac * float64(n)
		gp, gerr := gotPods.Plan(load)
		wp, werr := wantPods.Plan(load)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("load %v: err %v vs %v", load, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		equalPlans(t, "pod plan n=4096", gp, wp)
	}
}

// TestPatchZeroDeltaSharesTables pins the empty-batch fast path: the
// tables are shared outright and only the epoch advances.
func TestPatchZeroDeltaSharesTables(t *testing.T) {
	s, err := NewSnapshot(hierProfile(32), 7, WithPatchSupport(), WithPreprocessWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	next, err := s.Patch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch() != 8 {
		t.Fatalf("epoch = %d, want 8", next.Epoch())
	}
	if next.pre != s.pre {
		t.Fatal("zero-delta patch rebuilt the tables")
	}
}

// TestPatchWithoutRetentionFallsBack pins the fallback: a snapshot built
// without WithPatchSupport still patches correctly via a full rebuild.
func TestPatchWithoutRetentionFallsBack(t *testing.T) {
	profile := hierProfile(48)
	s, err := NewSnapshot(profile, 0, WithPreprocessWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.PatchSupported() {
		t.Fatal("retention on without WithPatchSupport")
	}
	batch := driftBatch(mathx.NewRand(9), profile, 4)
	next, err := s.Patch(batch, WithPreprocessWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	checkFlatAgainstRebuild(t, "fallback", next, applyBatch(profile, batch), 1)
}

// TestPatchRejectsBadDeltas pins the typed-error contract for batches
// Patch must refuse.
func TestPatchRejectsBadDeltas(t *testing.T) {
	profile := hierProfile(16)
	s, err := NewSnapshot(profile, 0, WithPatchSupport(), WithPreprocessWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPodSnapshot(profile, 0, WithPodCount(4))
	if err != nil {
		t.Fatal(err)
	}
	good := profile.Machines[0]
	bad := good
	bad.Beta = -1
	cases := map[string][]MachineDelta{
		"out of range":  {{ID: 16, Machine: good}},
		"negative id":   {{ID: -1, Machine: good}},
		"duplicate id":  {{ID: 2, Machine: good}, {ID: 2, Machine: good}},
		"invalid coeff": {{ID: 0, Machine: bad}},
	}
	for name, batch := range cases {
		if _, err := s.Patch(batch); !errors.Is(err, ErrBadDelta) {
			t.Fatalf("flat %s: err = %v, want ErrBadDelta", name, err)
		}
		if _, err := ps.Patch(batch); !errors.Is(err, ErrBadDelta) {
			t.Fatalf("pods %s: err = %v, want ErrBadDelta", name, err)
		}
	}
}

// TestPatchRejectsInvalidDriftedMachine pins the delta-only validation:
// without power drift Patch checks only the drifted machines, and each of
// these must still be refused with ErrBadDelta on both snapshot forms,
// the receiver serving the same plan afterwards.
func TestPatchRejectsInvalidDriftedMachine(t *testing.T) {
	const n = 64
	profile := hierProfile(n)
	s, err := NewSnapshot(profile, 0, WithPatchSupport(), WithPreprocessWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPodSnapshot(profile, 0, WithPodCount(4))
	if err != nil {
		t.Fatal(err)
	}
	const load = 0.4 * n
	flatBefore, err := s.Plan(load)
	if err != nil {
		t.Fatal(err)
	}
	podBefore, err := ps.Plan(load)
	if err != nil {
		t.Fatal(err)
	}
	good := profile.Machines[37]
	infeasible, nanBeta, negAlpha := good, good, good
	infeasible.Gamma = profile.TMaxC // K = −β·W2/(β·W1) < 0
	nanBeta.Beta = math.NaN()
	negAlpha.Alpha = -good.Alpha
	cases := map[string]MachineProfile{"K <= 0": infeasible, "NaN beta": nanBeta, "negative alpha": negAlpha}
	for name, m := range cases {
		// A valid drift beside the bad one: the batch is refused whole.
		batch := []MachineDelta{{ID: 3, Machine: good}, {ID: 37, Machine: m}}
		if _, err := s.Patch(batch); !errors.Is(err, ErrBadDelta) {
			t.Fatalf("flat %s: err = %v, want ErrBadDelta", name, err)
		}
		if _, err := ps.Patch(batch); !errors.Is(err, ErrBadDelta) {
			t.Fatalf("pods %s: err = %v, want ErrBadDelta", name, err)
		}
		flatAfter, err := s.Plan(load)
		if err != nil {
			t.Fatalf("flat %s: receiver stopped serving: %v", name, err)
		}
		equalPlans(t, "flat after "+name, flatAfter, flatBefore)
		podAfter, err := ps.Plan(load)
		if err != nil {
			t.Fatalf("pods %s: receiver stopped serving: %v", name, err)
		}
		equalPlans(t, "pods after "+name, podAfter, podBefore)
	}
}

// TestPatchSharesUntouchedLeaves pins the touched-leaf patch: leaves
// holding no drifted machine share their IDs and pairs with the receiver
// by pointer, touched leaves own fresh pairs, and no leaf's pairs alias
// the room's pair array (that would pin old generations' rooms).
func TestPatchSharesUntouchedLeaves(t *testing.T) {
	const n, pods = 1024, 8
	profile := hierProfile(n)
	ps, err := NewPodSnapshot(profile, 0, WithPodCount(pods))
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRand(4)
	batch := append(podBatch(rng, profile, 2*n/pods, n/pods, 5), podBatch(rng, profile, 5*n/pods, n/pods, 1)...)
	next, err := ps.Patch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for j, pd := range next.pods {
		old := ps.pods[j]
		touched := j == 2 || j == 5
		if &pd.ids[0] != &old.ids[0] {
			t.Fatalf("pod %d: ids not shared with the receiver", j)
		}
		if shared := &pd.reduced.Pairs[0] == &old.reduced.Pairs[0]; shared == touched {
			t.Fatalf("pod %d (touched %t): pairs shared = %t", j, touched, shared)
		}
		if &pd.reduced.Pairs[0] == &next.room.Pairs[pd.ids[0]] {
			t.Fatalf("pod %d: pairs alias the room's pair array", j)
		}
	}
}

// TestPodIndex pins the partition lookup used to route drift to pods.
func TestPodIndex(t *testing.T) {
	ps, err := NewPodSnapshot(hierProfile(100), 0, WithPodCount(7))
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 100; id++ {
		j, err := ps.PodIndex(id)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, mid := range ps.pods[j].ids {
			if mid == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("machine %d not in reported pod %d", id, j)
		}
	}
	if _, err := ps.PodIndex(100); err == nil {
		t.Fatal("out-of-range PodIndex succeeded")
	}
	if _, err := ps.PodIndex(-1); err == nil {
		t.Fatal("negative PodIndex succeeded")
	}
}
