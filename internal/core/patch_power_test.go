package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"coolopt/internal/mathx"
)

// This file is the power-drift half of the incremental-maintenance
// battery. A MachineDelta carrying W1/W2 replaces the room power model
// (Eq. 9), which moves every machine's Eq. 19 boundary K_i at once — so
// Patch must fall back to a full rebuild, and the rebuilt snapshot must
// still be bit-identical to a from-scratch build over the patched
// profile. The validation cases pin the batch grammar: negative
// coefficients, W2 without W1, and disagreeing replacements are refused
// with ErrBadDelta before any table work starts.

// powerBatch attaches a W1/W2 replacement to a thermal drift batch (or
// fabricates a carrier delta when the batch is empty), mirroring what
// profiling.Refresher emits on pooled power-fit drift.
func powerBatch(p *Profile, batch []MachineDelta, w1, w2 float64) []MachineDelta {
	if len(batch) == 0 {
		batch = []MachineDelta{{ID: 0, Machine: p.Machines[0]}}
	}
	out := append([]MachineDelta(nil), batch...)
	out[0].W1, out[0].W2 = w1, w2
	return out
}

// applyPowerBatch mirrors a power-carrying batch onto a plain profile
// copy, the input of the from-scratch rebuild the patch is compared to.
func applyPowerBatch(p *Profile, batch []MachineDelta) *Profile {
	next := applyBatch(p, batch)
	for _, d := range batch {
		if d.W1 > 0 {
			next.W1, next.W2 = d.W1, d.W2
		}
	}
	return next
}

// TestPowerDriftPredicate pins the helper the engine's patch advisor
// routes on.
func TestPowerDriftPredicate(t *testing.T) {
	p := hierProfile(8)
	if PowerDrift(nil) {
		t.Fatal("empty batch reports power drift")
	}
	thermal := []MachineDelta{{ID: 3, Machine: p.Machines[3]}}
	if PowerDrift(thermal) {
		t.Fatal("thermal-only batch reports power drift")
	}
	if !PowerDrift(powerBatch(p, thermal, p.W1*1.04, p.W2)) {
		t.Fatal("W1-carrying batch does not report power drift")
	}
}

// TestPatchPowerDriftFlat: a flat snapshot patched with a power-carrying
// batch must equal a from-scratch build over the patched profile bit for
// bit, keep patch support, and advance the epoch — even though every
// retained crossing was invalidated.
func TestPatchPowerDriftFlat(t *testing.T) {
	const n = 96
	rng := mathx.NewRand(5)
	profile := hierProfile(n)
	cur, err := NewSnapshot(profile, 0, WithPatchSupport(), WithPreprocessWorkers(1))
	if err != nil {
		t.Fatal(err)
	}

	// Epoch 1: pure power drift through a carrier delta (no thermal
	// motion at all). Epoch 2: combined thermal + power drift.
	batches := [][]MachineDelta{
		powerBatch(profile, nil, profile.W1*1.05, profile.W2*0.92),
		powerBatch(profile, driftBatch(rng, profile, 16), profile.W1*1.08, profile.W2*0.9),
	}
	for e, batch := range batches {
		profile = applyPowerBatch(profile, batch)
		next, err := cur.Patch(batch, WithPreprocessWorkers(1))
		if err != nil {
			t.Fatalf("epoch %d: patch: %v", e, err)
		}
		checkFlatAgainstRebuild(t, "flat power drift", next, profile, uint64(e+1))
		if !next.PatchSupported() {
			t.Fatalf("epoch %d: power-drift rebuild lost patch support", e)
		}
		cur = next
	}
}

// TestPatchSpliceMatchesFreshBuild: a crossing splice must equal a
// from-scratch NewSnapshot over the patched profile bit for bit — tables,
// plans, and the retained crossing times the next splice will filter —
// and stay patchable, so a following power-drift batch (which rebuilds)
// chains onto it and still matches.
func TestPatchSpliceMatchesFreshBuild(t *testing.T) {
	const n = 96
	rng := mathx.NewRand(7)
	profile := hierProfile(n)
	cur, err := NewSnapshot(profile, 0, WithPatchSupport(), WithPreprocessWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for e, label := range []string{"splice", "power drift after splice"} {
		batch := driftBatch(rng, profile, 16)
		if e == 1 {
			batch = powerBatch(profile, batch, profile.W1*1.03, profile.W2*0.97)
		}
		profile = applyPowerBatch(profile, batch)
		next, err := cur.Patch(batch, WithPreprocessWorkers(1))
		if err != nil {
			t.Fatalf("%s: patch: %v", label, err)
		}
		checkFlatAgainstRebuild(t, label, next, profile, uint64(e+1))
		fresh, err := NewSnapshot(profile, uint64(e+1), WithPatchSupport(), WithPreprocessWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		got, want := next.pre.crossings, fresh.pre.crossings
		if len(got) != len(want) {
			t.Fatalf("%s: %d retained crossings, fresh build retains %d", label, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i].t) != math.Float64bits(want[i].t) {
				t.Fatalf("%s: crossing %d at t=%v, fresh build has %v", label, i, got[i].t, want[i].t)
			}
		}
		cur = next
	}
}

// TestPatchPowerDriftPods: pod leaves under power drift (every particle
// moved) match a from-scratch build bit for bit, at depth 2 and at
// depth 3.
func TestPatchPowerDriftPods(t *testing.T) {
	const n, pods = 128, 8
	for _, depth := range []int{2, 3} {
		rng := mathx.NewRand(9)
		profile := hierProfile(n)
		cur, err := NewPodSnapshot(profile, 0, WithPodCount(pods), WithPodDepth(depth))
		if err != nil {
			t.Fatal(err)
		}
		batch := powerBatch(profile, driftBatch(rng, profile, 4), profile.W1*1.06, profile.W2*0.95)
		profile = applyPowerBatch(profile, batch)
		next, err := cur.Patch(batch)
		if err != nil {
			t.Fatalf("depth %d: patch: %v", depth, err)
		}
		want, err := NewPodSnapshot(profile, 1, WithPodCount(pods), WithPodDepth(depth))
		if err != nil {
			t.Fatalf("depth %d: rebuild: %v", depth, err)
		}
		if next.Depth() != want.Depth() {
			t.Fatalf("depth %d: patched tree depth %d vs rebuilt %d", depth, next.Depth(), want.Depth())
		}
		for j := range next.pods {
			equalPairs(t, "pod power drift", next.pods[j].reduced.Pairs, want.pods[j].reduced.Pairs)
		}
		for _, frac := range []float64{0.1, 0.45, 0.8} {
			load := frac * float64(n)
			gp, gerr := next.Plan(load)
			wp, werr := want.Plan(load)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("depth %d load %v: err %v vs %v", depth, load, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			equalPlans(t, "pod power plan", gp, wp)
		}
	}
}

// TestPatchPowerDriftRejects pins the batch grammar around W1/W2.
func TestPatchPowerDriftRejects(t *testing.T) {
	const n = 32
	p := hierProfile(n)
	snap, err := NewSnapshot(p, 0, WithPatchSupport(), WithPreprocessWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mk   func() []MachineDelta
		want string
	}{
		{"negative W1", func() []MachineDelta {
			return []MachineDelta{{ID: 0, Machine: p.Machines[0], W1: -1}}
		}, "negative power coefficients"},
		{"negative W2", func() []MachineDelta {
			return []MachineDelta{{ID: 0, Machine: p.Machines[0], W1: 52, W2: -3}}
		}, "negative power coefficients"},
		{"W2 without W1", func() []MachineDelta {
			return []MachineDelta{{ID: 0, Machine: p.Machines[0], W2: 30}}
		}, "without W1"},
		{"disagreeing replacements", func() []MachineDelta {
			return []MachineDelta{
				{ID: 0, Machine: p.Machines[0], W1: 55, W2: 30},
				{ID: 1, Machine: p.Machines[1], W1: 56, W2: 30},
			}
		}, "disagrees on power drift"},
	} {
		_, err := snap.Patch(tc.mk(), WithPreprocessWorkers(1))
		if err == nil {
			t.Errorf("%s: patch accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrBadDelta) {
			t.Errorf("%s: error %v is not ErrBadDelta", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// Agreement is bit-exact, not approximate: two deltas restating the
	// identical replacement are fine.
	agree := []MachineDelta{
		{ID: 0, Machine: p.Machines[0], W1: 55, W2: 30},
		{ID: 1, Machine: p.Machines[1], W1: 55, W2: 30},
	}
	if _, err := snap.Patch(agree, WithPreprocessWorkers(1)); err != nil {
		t.Errorf("agreeing replacements refused: %v", err)
	}
}
