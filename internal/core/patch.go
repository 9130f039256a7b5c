package core

import (
	"errors"
	"fmt"
	"sort"

	"coolopt/internal/mathx"
)

// This file implements incremental snapshot maintenance: rebuilding a
// frozen Snapshot / PodSnapshot after a few machines' Eq. 8 coefficients
// (and hence their Eq. 19 particle parameters K_i and α_i/β_i) drift,
// without resweeping the whole room.
//
// The contract is strict bit-identity: Patch must produce exactly the
// bytes a from-scratch NewSnapshot/NewPodSnapshot over the patched
// profile would — tables, and every plan computed on them.
// That rules out value-level shortcuts (float sums are order-dependent,
// so "subtract the old A, add the new one" drifts by ulps) and dictates
// the structure-level one used here:
//
//   - Flat tables. A drifted machine changes only the crossing times of
//     the ~n pairs it participates in; the other ~n²/2 crossing times are
//     computed from unchanged inputs and are bit-identical. With the
//     sorted crossing list retained (WithPatchSupport), Patch filters out
//     the drifted pairs' entries, regenerates and sorts only the k·n new
//     ones, merges the two sorted lists in O(n²) — skipping both the
//     O(n²) pair generation and the radix sort of all ~n²/2 times — and
//     re-runs the standard sweep. The sweep's output depends only on the
//     sorted time sequence and the per-event crossing sets (span merging
//     is order-independent inside an event), so the result matches a
//     fresh build bit for bit. This path cuts the constant, not the
//     asymptotics: the sweep itself is still O(n²), but the splice beats
//     a fresh build at every measured size (EXPERIMENTS.md,
//     "Incremental drift absorption").
//
//   - Pod leaves. They hold no tables, only their pairs and the
//     Eq. 21–22 aggregates (A_j, B_j, shares, the share-scaled cooling
//     leverage Rho_j), all O(n) scalars. Patch re-derives every leaf
//     with the exact loops NewPodSnapshot runs over the receiver's
//     partition, so the result is a cold build bit for bit — shares
//     shift for every pod when any machine's B drifts. The planner tree
//     is rebuilt to the receiver's shape (same leaves, same depth).
//
//   - Power-model drift. A batch may carry replacement room W1/W2
//     (Eq. 9) coefficients alongside the per-machine thermal fits. K_i
//     depends on W1 and W2 for every machine, so power drift moves every
//     particle at once and no crossing survives. The flat Patch detects
//     this (PowerDrift) and rebuilds its tables — still bit-identical to
//     a fresh build over the patched profile, just without the
//     incremental discount. The pod Patch re-derives every leaf anyway.

// MachineDelta is one machine's re-profiled Eq. 8 coefficients, the unit
// of drift the recursive-least-squares refresher (internal/profiling)
// emits and Patch consumes.
type MachineDelta struct {
	// ID is the machine whose coefficients drifted.
	ID int `json:"id"`
	// Machine carries the full replacement coefficients (not increments),
	// so a delta batch is idempotent to apply.
	Machine MachineProfile `json:"machine"`
	// W1, W2 optionally carry replacement room power-model coefficients
	// (Eq. 9: P_i = W1·L_i + W2). Zero W1 means "no power drift in this
	// delta"; a delta with W1 > 0 replaces both coefficients. Every delta
	// in a batch that carries power drift must agree on the values.
	W1 float64 `json:"w1,omitempty"`
	W2 float64 `json:"w2,omitempty"`
}

// PowerDrift reports whether the batch carries replacement Eq. 9 power
// coefficients (any delta with W1 set) in addition to the per-machine
// thermal fits. Power drift forces full table rebuilds: every K_i moves.
func PowerDrift(drifted []MachineDelta) bool {
	for _, d := range drifted {
		if d.W1 != 0 {
			return true
		}
	}
	return false
}

// ErrBadDelta reports a drift batch Patch refuses to apply: a machine ID
// outside the room, the same machine drifted twice in one batch,
// inconsistent or invalid power-model coefficients, or coefficients that
// fail profile validation (non-positive α/β, K ≤ 0). Wrap-compare with
// errors.Is.
var ErrBadDelta = errors.New("core: bad drift delta")

// applyDeltas returns a validated deep copy of p with the deltas applied,
// plus the sorted drifted IDs and whether the batch replaced the room
// power model. An empty batch yields a plain copy.
func applyDeltas(p *Profile, drifted []MachineDelta) (*Profile, []int, bool, error) {
	frozen := *p
	frozen.Machines = append([]MachineProfile(nil), p.Machines...)
	ids := make([]int, 0, len(drifted))
	seen := make(map[int]bool, len(drifted))
	powerDrift := false
	for _, d := range drifted {
		if d.ID < 0 || d.ID >= len(frozen.Machines) {
			return nil, nil, false, fmt.Errorf("%w: machine %d outside [0, %d)", ErrBadDelta, d.ID, len(frozen.Machines))
		}
		if seen[d.ID] {
			return nil, nil, false, fmt.Errorf("%w: machine %d drifted twice in one batch", ErrBadDelta, d.ID)
		}
		seen[d.ID] = true
		frozen.Machines[d.ID] = d.Machine
		ids = append(ids, d.ID)
		switch {
		case d.W1 < 0 || d.W2 < 0:
			return nil, nil, false, fmt.Errorf("%w: machine %d carries negative power coefficients W1=%v W2=%v", ErrBadDelta, d.ID, d.W1, d.W2)
		case d.W1 == 0 && d.W2 != 0:
			return nil, nil, false, fmt.Errorf("%w: machine %d sets W2=%v without W1 (power drift replaces both)", ErrBadDelta, d.ID, d.W2)
		case d.W1 > 0:
			// Bit-exact on purpose: deltas in one batch must restate the
			// identical replacement coefficients, not approximately agree.
			if powerDrift && (!mathx.Same(frozen.W1, d.W1) || !mathx.Same(frozen.W2, d.W2)) {
				return nil, nil, false, fmt.Errorf("%w: machine %d disagrees on power drift (W1=%v W2=%v vs W1=%v W2=%v)",
					ErrBadDelta, d.ID, d.W1, d.W2, frozen.W1, frozen.W2)
			}
			frozen.W1, frozen.W2 = d.W1, d.W2
			powerDrift = true
		}
	}
	if err := frozen.Validate(); err != nil {
		return nil, nil, false, fmt.Errorf("%w: patched profile rejected: %w", ErrBadDelta, err)
	}
	sort.Ints(ids)
	return &frozen, ids, powerDrift, nil
}

// Patch returns a new deep-frozen snapshot with the drifted machines'
// coefficients replaced and the consolidation tables updated, tagged with
// the next epoch. The result is byte-for-byte identical to
// NewSnapshot(patched profile, epoch+1, same options) — the differential
// battery in patch_test.go enforces this — but skips the O(n²) pair
// generation and the full crossing sort when the receiver retained
// its crossing list (WithPatchSupport); without retention, or when the
// batch carries power-model drift (every crossing moves), it falls back
// to a full rebuild. An empty batch shares the receiver's tables
// outright. Options forward to the rebuild exactly like NewSnapshot's;
// the worker count must match the original build's for bit-identity
// (worker-count changes can shift results by ulps either way).
func (s *Snapshot) Patch(drifted []MachineDelta, opts ...PreprocessOption) (*Snapshot, error) {
	p2, ids, powerDrift, err := applyDeltas(s.profile, drifted)
	if err != nil {
		return nil, err
	}
	epoch := s.epoch + 1
	if len(ids) == 0 {
		return newFlatSnapshot(epoch, p2, s.pre), nil
	}
	cfg := preprocessConfig{}
	for _, opt := range opts {
		opt(&cfg)
	}
	if powerDrift || !s.pre.PatchSupported() {
		pre, err := Preprocess(p2.Reduce(), s.rebuildOpts(opts)...)
		if err != nil {
			return nil, err
		}
		return newFlatSnapshot(epoch, p2, pre), nil
	}
	pre, err := s.pre.patch(p2.Reduce(), ids, cfg)
	if err != nil {
		return nil, err
	}
	return newFlatSnapshot(epoch, p2, pre), nil
}

// rebuildOpts wraps caller options for a full-rebuild patch path so the
// result stays self-sustaining regardless of what the caller passed: the
// room always fits the preprocessing cap, and a receiver that retained
// its crossing list keeps retention across the rebuild. Caller options
// come last and still override.
func (s *Snapshot) rebuildOpts(opts []PreprocessOption) []PreprocessOption {
	out := []PreprocessOption{WithMaxMachines(s.profile.Size())}
	if s.pre.PatchSupported() {
		out = append(out, WithPatchSupport())
	}
	return append(out, opts...)
}

// PatchSupported reports whether the snapshot retained its crossing list
// (built with WithPatchSupport), i.e. whether Patch splices incrementally
// instead of rebuilding from scratch.
func (s *Snapshot) PatchSupported() bool { return s.pre.PatchSupported() }

// patch rebuilds the tables for r2 — the receiver's reduced instance with
// the listed machines' pairs replaced — by splicing the crossing list:
// keep the (bit-identical) crossings of undrifted pairs, regenerate the
// k·n crossings with a drifted endpoint, merge, and re-run the standard
// sweep. The caller guarantees the receiver retained its crossings.
func (pp *Preprocessed) patch(r2 Reduced, ids []int, cfg preprocessConfig) (*Preprocessed, error) {
	pairs := r2.Pairs
	n := len(pairs)
	driftedMask := make([]bool, n)
	for _, id := range ids {
		// Undrifted pairs passed this check at the original build.
		if pairs[id].B <= 0 {
			return nil, fmt.Errorf("core: pair %d has non-positive speed b = %v", id, pairs[id].B)
		}
		driftedMask[id] = true
	}

	kept := make([]crossing, 0, len(pp.crossings))
	for _, c := range pp.crossings {
		if driftedMask[c.p] || driftedMask[c.q] {
			continue
		}
		kept = append(kept, c)
	}

	// Regenerate with collectEvents' exact arithmetic (p < q, same
	// division) so every time is what a fresh generation would produce.
	// A pair of two drifted machines is generated once, from the smaller.
	fresh := make([]crossing, 0, len(ids)*n)
	for _, id := range ids {
		for j := 0; j < n; j++ {
			if j == id || (driftedMask[j] && j < id) {
				continue
			}
			p, q := id, j
			if q < p {
				p, q = q, p
			}
			db := pairs[q].B - pairs[p].B
			if db == 0 {
				continue // parallel particles never pass
			}
			t := (pairs[q].A - pairs[p].A) / db
			if t > 0 {
				fresh = append(fresh, crossing{t: t, p: int32(p), q: int32(q)})
			}
		}
	}
	fresh = sortCrossings([][]crossing{fresh}, fresh)

	// Merge the two radix-sorted lists. Each keeps its exact-time ties
	// in generation order, but the merged order can still permute them
	// relative to a fresh full build, which is harmless: grouping
	// depends only on the time sequence and the sweep only on each
	// event's crossing set.
	merged := make([]crossing, 0, len(kept)+len(fresh))
	i, j := 0, 0
	for i < len(kept) && j < len(fresh) {
		if kept[i].t <= fresh[j].t {
			merged = append(merged, kept[i])
			i++
		} else {
			merged = append(merged, fresh[j])
			j++
		}
	}
	merged = append(merged, kept[i:]...)
	merged = append(merged, fresh[j:]...)

	events, bucketEnd := groupCrossings(merged)
	out := &Preprocessed{reduced: r2, events: events, crossings: merged}
	out.buildSegments(merged, bucketEnd, cfg.workers)
	return out, nil
}

// Patch returns a new deep-frozen pod snapshot with the drifted machines'
// coefficients replaced, tagged with the next epoch. Pod leaves hold no
// tables, so every leaf's pairs and Eq. 21–22 aggregates (sums, shares,
// share-scaled cooling leverage) are re-derived with NewPodSnapshot's
// exact loops in O(n), and the planner tree is rebuilt to the receiver's
// shape (same leaves, same depth). The result is byte-for-byte identical
// to NewPodSnapshot(patched profile, epoch+1, WithPodCount(ps.Pods()),
// WithPodDepth(receiver's depth)) — with or without power drift.
func (ps *PodSnapshot) Patch(drifted []MachineDelta) (*PodSnapshot, error) {
	p2, _, _, err := applyDeltas(ps.profile, drifted)
	if err != nil {
		return nil, err
	}
	parts := make([][]int, len(ps.pods))
	for j, pd := range ps.pods {
		parts[j] = pd.ids
	}
	return assemblePods(ps.epoch+1, p2, parts, ps.depth), nil
}

// PodIndex returns the index of the pod containing machine id. Pods
// partition the room into contiguous ascending ranges, so this is a
// binary search over the range starts.
func (ps *PodSnapshot) PodIndex(id int) (int, error) {
	if id < 0 || id >= ps.profile.Size() {
		return 0, fmt.Errorf("core: machine %d outside [0, %d)", id, ps.profile.Size())
	}
	j := sort.Search(len(ps.pods), func(j int) bool {
		ids := ps.pods[j].ids
		return ids[len(ids)-1] >= id
	})
	return j, nil
}
