package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"coolopt"
	"coolopt/internal/chaos"
	"coolopt/internal/clock"
	"coolopt/internal/faults"
)

// This file implements -incremental-bench and -incremental-chaos: the
// measurements for incremental snapshot maintenance. The bench compares
// applying a k-machine drift batch through PodSnapshot.Patch (which
// re-derives only the pod leaves holding a drifted machine, plus O(n)
// copies of the room's pairs and profile) against rebuilding the
// planning state from scratch, writing a JSON trajectory
// (BENCH_incremental.json). The run doubles as a regression gate. It
// fails when, at the gate size of 16 drifted machines:
//
//   - a pod patch stops beating the whole-room exact-table rebuild by
//     -incremental-speedup-floor;
//   - in a room of at least podGateMinPods pods, a concentrated batch's
//     pod patch stops beating a cold pod build by podSpeedupFloor (a
//     patch that re-derives every leaf reads about 1);
//   - the pipelined install's prepare costs more than prepareRatioLimit
//     cold pod builds (an O(n log n) step in the install, such as
//     sorting the room for the scenario planner, reads about 4–5);
//   - the install's commit (the epoch-checked pointer swap) exceeds
//     -incremental-commit-limit-ns.
//
// The pod build, patch and prepare times are each the best of podReps
// runs.

// Gates on the pod patch path, set from measurement (EXPERIMENTS.md,
// "Installs pay for the drift"). At n = 4096 in 16 pods a touched-leaf
// patch reads 3.0–4.5× a cold pod build and its install prepare 0.26–0.45
// cold builds; re-deriving every leaf read 1.1–1.6×, and sorting the
// room in the prepare 4.2–4.6 builds. At n = 256 in 8 pods the prepare
// reads 0.4–1.1 builds (3.6–5.1 with the sort), but the patch ratio
// spreads over 0.8–1.9× either way: microsecond timings of a room whose
// 16-machine batch fills half a pod, so the patch floor applies only
// from podGateMinPods pods up.
const (
	podSpeedupFloor   = 2.0
	podGateMinPods    = 16
	prepareRatioLimit = 2.5
	podReps           = 15
)

// incrementalPoint is one (drift size, burst shape) cell.
type incrementalPoint struct {
	N       int    `json:"n"`
	Pods    int    `json:"pods"`
	Drifted int    `json:"drifted"`
	Shape   string `json:"shape"`
	// PodPatchNS is the PodSnapshot.Patch latency for this batch.
	PodPatchNS int64 `json:"pod_patch_ns"`
	// PodRebuildSpeedup is the from-scratch pod tree build over the
	// patch: both copy the room in O(n), but the patch re-derives only
	// the leaves a drifted machine sits in. FullRebuildSpeedup is the
	// from-scratch exact-table rebuild over the patch — what landing
	// this drift batch cost before incremental maintenance existed.
	PodRebuildSpeedup  float64 `json:"pod_rebuild_speedup"`
	FullRebuildSpeedup float64 `json:"full_rebuild_speedup"`
}

// incrementalBench is the file schema.
type incrementalBench struct {
	GeneratedUnix     int64   `json:"generated_unix"`
	SpeedupFloor      float64 `json:"speedup_floor"`
	PodSpeedupFloor   float64 `json:"pod_speedup_floor"`
	PrepareRatioLimit float64 `json:"prepare_ratio_limit"`
	GateDrifted       int     `json:"gate_drifted"`
	CommitLimitNS     int64   `json:"commit_limit_ns"`
	// RebuildFlatNS and RebuildPodNS are the from-scratch build times of
	// the exact tables (with crossing retention) and the pod tree.
	// RetainedBytes is the extra memory the exact tables carry to stay
	// patchable.
	RebuildFlatNS int64 `json:"rebuild_flat_ns"`
	RebuildPodNS  int64 `json:"rebuild_pod_ns"`
	RetainedBytes int64 `json:"retained_bytes"`
	// FlatPatchNS is Snapshot.Patch on the exact tables at the gate size
	// (kept crossings are filtered, only drifted pairs regenerate; the
	// segment arena still rebuilds, so the win is bounded).
	FlatPatchNS int64 `json:"flat_patch_ns"`
	// PrepareNS and CommitNS split one pipelined engine install: the
	// off-hot-path build versus the epoch-checked pointer swap.
	// PrepareRatio is PrepareNS over RebuildPodNS.
	PrepareNS    int64              `json:"prepare_ns"`
	CommitNS     int64              `json:"commit_ns"`
	PrepareRatio float64            `json:"prepare_ratio"`
	Points       []incrementalPoint `json:"points"`
}

// driftBurst turns a burst's machine IDs into a valid drift batch against
// the profile: a deterministic small β/γ perturbation.
func driftBurst(p *coolopt.Profile, ids []int) []coolopt.MachineDelta {
	batch := make([]coolopt.MachineDelta, len(ids))
	for i, id := range ids {
		m := p.Machines[id]
		m.Beta *= 1.01
		m.Gamma += 0.1
		batch[i] = coolopt.MachineDelta{ID: id, Machine: m}
	}
	return batch
}

// runIncrementalBench measures one room size across drift-batch sizes
// {1, gateK, 16·gateK} (clipped to n/4) in both burst shapes and writes
// the trajectory to path.
func runIncrementalBench(out io.Writer, path string, n, podCount int, speedupFloor float64, commitLimitNS int64) error {
	const gateK = 16
	p := syntheticProfile(n)
	res := incrementalBench{
		GeneratedUnix: benchClock.Now().Unix(),
		SpeedupFloor:  speedupFloor, PodSpeedupFloor: podSpeedupFloor, PrepareRatioLimit: prepareRatioLimit,
		GateDrifted: gateK, CommitLimitNS: commitLimitNS,
	}

	// Full-rebuild baselines: the exact tables (what a drift batch cost
	// before incremental maintenance — measured once, it is the slow
	// path being retired) and the pod tree.
	var snap *coolopt.Snapshot
	flatD, err := bestOf(1, func() error {
		var err error
		snap, err = coolopt.NewSnapshot(p, 0, coolopt.WithPatchSupport(), coolopt.WithMaxMachines(n))
		return err
	})
	if err != nil {
		return fmt.Errorf("exact tables n=%d: %w", n, err)
	}
	res.RebuildFlatNS = flatD.Nanoseconds()
	res.RetainedBytes = int64(snap.Tables().RetainedCrossingBytes())

	var podOpts []coolopt.PodOption
	if podCount > 0 {
		podOpts = append(podOpts, coolopt.WithPodCount(podCount))
	}
	var pods *coolopt.PodSnapshot
	podD, err := bestOf(podReps, func() error {
		var err error
		pods, err = coolopt.NewPodSnapshot(p, 0, podOpts...)
		return err
	})
	if err != nil {
		return fmt.Errorf("pod tree n=%d: %w", n, err)
	}
	res.RebuildPodNS = podD.Nanoseconds()

	var ks []int
	for _, k := range []int{1, gateK, 16 * gateK} {
		if k <= n/4 {
			ks = append(ks, k)
		}
	}
	shapes := []struct {
		name  string
		burst func(n, f int) []int
	}{
		{"concentrated", faults.ConcentratedBurst},
		{"spread", faults.SpreadBurst},
	}
	for _, k := range ks {
		for _, shape := range shapes {
			batch := driftBurst(p, shape.burst(n, k))
			var patched *coolopt.PodSnapshot
			d, err := bestOf(podReps, func() error {
				var err error
				patched, err = pods.Patch(batch)
				return err
			})
			if err != nil {
				return fmt.Errorf("pod patch n=%d k=%d %s: %w", n, k, shape.name, err)
			}
			if patched.Epoch() != pods.Epoch()+1 {
				return fmt.Errorf("pod patch n=%d k=%d %s: epoch %d, want %d", n, k, shape.name, patched.Epoch(), pods.Epoch()+1)
			}
			pt := incrementalPoint{
				N: n, Pods: pods.Pods(), Drifted: k, Shape: shape.name,
				PodPatchNS: d.Nanoseconds(),
			}
			if pt.PodPatchNS > 0 {
				pt.PodRebuildSpeedup = float64(res.RebuildPodNS) / float64(pt.PodPatchNS)
				pt.FullRebuildSpeedup = float64(res.RebuildFlatNS) / float64(pt.PodPatchNS)
			}
			if k == gateK && pt.FullRebuildSpeedup < speedupFloor {
				return fmt.Errorf("incremental speedup regression at k=%d %s: patch %v is only %.1f× the %v full rebuild, floor %.1f×",
					k, shape.name, time.Duration(pt.PodPatchNS), pt.FullRebuildSpeedup,
					time.Duration(res.RebuildFlatNS), speedupFloor)
			}
			if k == gateK && shape.name == "concentrated" && pt.Pods >= podGateMinPods && pt.PodRebuildSpeedup < podSpeedupFloor {
				return fmt.Errorf("pod patch regression at k=%d %s: patch %v is only %.2f× the %v cold pod build, floor %.1f×",
					k, shape.name, time.Duration(pt.PodPatchNS), pt.PodRebuildSpeedup,
					time.Duration(res.RebuildPodNS), podSpeedupFloor)
			}
			res.Points = append(res.Points, pt)
			fmt.Fprintf(out, "incremental n=%d (%d pods) k=%-3d %-12s: patch %v vs rebuild %v pod / %v full (%.2f× / %.0f×)\n",
				n, pt.Pods, k, shape.name, time.Duration(pt.PodPatchNS),
				time.Duration(res.RebuildPodNS), time.Duration(res.RebuildFlatNS),
				pt.PodRebuildSpeedup, pt.FullRebuildSpeedup)
		}
	}

	// The exact tables' own patch path at the gate size: retained
	// crossings make it cheaper than a full rebuild, but the segment
	// arena still rebuilds, so it stays the off-hot-path option.
	gateBatch := driftBurst(p, faults.ConcentratedBurst(n, gateK))
	d, err := bestOf(1, func() error {
		_, err := snap.Patch(gateBatch, coolopt.WithPatchSupport())
		return err
	})
	if err != nil {
		return fmt.Errorf("flat patch n=%d: %w", n, err)
	}
	res.FlatPatchNS = d.Nanoseconds()
	fmt.Fprintf(out, "incremental n=%d exact-table patch k=%d: %v (%.1f× the full rebuild)\n",
		n, gateK, d, float64(res.RebuildFlatNS)/float64(res.FlatPatchNS))

	// One pipelined install through the serving engine (pod tree, the
	// configuration that serves at this scale): the prepare runs off the
	// hot path, the commit must stay a sub-millisecond pointer swap.
	eng, err := coolopt.NewEngineFromPodSnapshot(pods)
	if err != nil {
		return err
	}
	// Preparing publishes nothing, so the prepare repeats against the
	// same live state and the last one is committed.
	var prep *coolopt.PreparedInstall
	prepD, err := bestOf(podReps, func() error {
		var err error
		prep, err = eng.PreparePatch(gateBatch)
		return err
	})
	if err != nil {
		return fmt.Errorf("prepare install: %w", err)
	}
	commitStart := benchClock.Now()
	if err := eng.CommitInstall(prep); err != nil {
		return fmt.Errorf("commit install: %w", err)
	}
	res.CommitNS = clock.Since(benchClock, commitStart).Nanoseconds()
	res.PrepareNS = prepD.Nanoseconds()
	res.PrepareRatio = float64(res.PrepareNS) / float64(res.RebuildPodNS)
	if res.CommitNS > commitLimitNS {
		return fmt.Errorf("install commit latency regression: %v exceeds the %v limit",
			time.Duration(res.CommitNS), time.Duration(commitLimitNS))
	}
	if res.PrepareRatio > prepareRatioLimit {
		return fmt.Errorf("install prepare regression: %v is %.2f× the %v cold pod build, limit %.1f×",
			prepD, res.PrepareRatio, time.Duration(res.RebuildPodNS), prepareRatioLimit)
	}
	fmt.Fprintf(out, "incremental n=%d pipelined install: prepare %v (%.2f× a cold pod build, limit %.1f×), commit %v (limit %v)\n",
		n, prepD, res.PrepareRatio, prepareRatioLimit, time.Duration(res.CommitNS), time.Duration(commitLimitNS))

	data, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote incremental-maintenance trajectory to %s\n", path)
	return nil
}

// runIncrementalChaos runs the incremental-install chaos scenario: a
// re-profiler trickling patch generations through the pipelined install
// path while planner goroutines hammer every serving flavor. Any
// pipeline-contract violation fails the run.
func runIncrementalChaos(out io.Writer, n, podCount int) error {
	rep, err := chaos.RunIncrementalServing(chaos.IncrementalOptions{N: n, Pods: podCount})
	if err != nil {
		return fmt.Errorf("incremental serving chaos: %w", err)
	}
	fmt.Fprintf(out, "incremental serving chaos n=%d (%d pods): %s\n", n, podCount, rep)
	fmt.Fprintln(out, "verdict: epochs monotone at every worker, sampled answers bit-identical to their recorded generation, readiness never flapped")
	return nil
}
