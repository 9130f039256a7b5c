package core

import (
	"errors"
	"math"
	"testing"

	"coolopt/internal/mathx"
)

// FuzzSnapshotPatch drives randomized and degenerate drift batches
// through both Patch paths and holds the differential line: every
// accepted batch must reproduce the from-scratch rebuild byte for byte
// (tables and plans, including degraded plans avoiding a drifted
// machine), and every malformed batch must be rejected with ErrBadDelta
// while leaving the receiver fully usable.
//
// The corpus seeds the degenerate shapes the issue calls out explicitly:
// zero-delta patch, all-machines drift, sign-flipping α/β, duplicate
// machine IDs, and drift on an avoided machine.
func FuzzSnapshotPatch(f *testing.F) {
	// seed, drift count, corruption mode, avoided machine.
	f.Add(int64(1), uint8(1), uint8(0), uint8(3))   // single-machine drift
	f.Add(int64(2), uint8(16), uint8(0), uint8(0))  // mid-size batch
	f.Add(int64(3), uint8(0), uint8(0), uint8(5))   // zero-delta patch
	f.Add(int64(4), uint8(255), uint8(0), uint8(9)) // all-machines drift (clipped)
	f.Add(int64(5), uint8(4), uint8(1), uint8(2))   // sign-flipped alpha
	f.Add(int64(6), uint8(4), uint8(2), uint8(2))   // sign-flipped beta
	f.Add(int64(7), uint8(4), uint8(3), uint8(7))   // duplicate machine IDs
	f.Add(int64(8), uint8(4), uint8(4), uint8(1))   // out-of-range ID
	f.Add(int64(9), uint8(3), uint8(0), uint8(0))   // drift on the avoided machine

	const n, pods = 32, 4
	base := hierProfile(n)
	flat, err := NewSnapshot(base, 0, WithPatchSupport(), WithPreprocessWorkers(1))
	if err != nil {
		f.Fatal(err)
	}
	podded, err := NewPodSnapshot(base, 0, WithPodCount(pods))
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, seed int64, k uint8, mode uint8, avoidRaw uint8) {
		rng := mathx.NewRand(seed)
		batch := driftBatch(rng, base, int(k))
		switch mode % 5 {
		case 1: // sign-flip alpha
			if len(batch) == 0 {
				return
			}
			batch[0].Machine.Alpha = -batch[0].Machine.Alpha
		case 2: // sign-flip beta
			if len(batch) == 0 {
				return
			}
			batch[0].Machine.Beta = -batch[0].Machine.Beta
		case 3: // duplicate machine IDs
			if len(batch) == 0 {
				return
			}
			batch = append(batch, batch[0])
		case 4: // out-of-range ID
			batch = append(batch, MachineDelta{ID: n + int(k), Machine: base.Machines[0]})
		}

		gotFlat, errFlat := flat.Patch(batch, WithPreprocessWorkers(1))
		gotPods, errPods := podded.Patch(batch)
		if (errFlat == nil) != (errPods == nil) {
			t.Fatalf("paths disagree on acceptance: flat %v, pods %v", errFlat, errPods)
		}

		if errFlat != nil {
			// Malformed input contract: typed rejection, and a plain
			// rebuild of the same deltas must reject too (or the batch had
			// duplicates/range errors a rebuild cannot even express).
			if !errors.Is(errFlat, ErrBadDelta) {
				t.Fatalf("flat rejection not ErrBadDelta: %v", errFlat)
			}
			if !errors.Is(errPods, ErrBadDelta) {
				t.Fatalf("pods rejection not ErrBadDelta: %v", errPods)
			}
			// The receiver must stay usable after a rejected batch.
			if _, err := flat.Plan(0.4 * n); err != nil {
				t.Fatalf("flat receiver broken after rejection: %v", err)
			}
			return
		}

		patched := applyBatch(base, batch)
		checkFlatAgainstRebuild(t, "fuzz flat", gotFlat, patched, 1)
		wantPods, err := NewPodSnapshot(patched, 1, WithPodCount(pods))
		if err != nil {
			t.Fatalf("pod rebuild: %v", err)
		}
		for j := range gotPods.pods {
			equalPairs(t, "fuzz pod", gotPods.pods[j].reduced.Pairs, wantPods.pods[j].reduced.Pairs)
		}

		// Drift on an avoided machine: degraded planning over either
		// patched snapshot must match its rebuild bit for bit and never
		// power the avoided machine, drifted or not.
		avoid := []int{int(avoidRaw) % n}
		wp, err := NewSnapshot(patched, 1, WithPreprocessWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			label     string
			got, want func(float64, []int) (*Plan, error)
		}{
			{"fuzz degraded flat", gotFlat.PlanAvoiding, wp.PlanAvoiding},
			{"fuzz degraded pods", gotPods.PlanAvoiding, wantPods.PlanAvoiding},
		} {
			gp, gerr := c.got(0.4*n, avoid)
			wplan, werr := c.want(0.4*n, avoid)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: plans disagree on feasibility: %v vs %v", c.label, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			equalPlans(t, c.label, gp, wplan)
			for _, i := range gp.On {
				if i == avoid[0] {
					t.Fatalf("%s: powered avoided machine %d", c.label, i)
				}
				if math.Signbit(gp.Loads[i]) {
					t.Fatalf("%s: machine %d carries negative load", c.label, i)
				}
			}
		}
	})
}
