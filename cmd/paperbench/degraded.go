package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"coolopt"
	"coolopt/internal/chaos"
	"coolopt/internal/faults"
)

// This file implements -degraded-bench and -degraded-chaos: the
// robustness measurements for degraded-mode planning. The bench compares
// pod-local degraded re-planning (PodSnapshot.PlanAvoiding — untouched
// pods plan over all their machines, failure-touched pods over their
// survivors) against
// the flat degraded re-plan (the O(n) closed-form prefix sweep over the
// whole survivor pool) across failure-burst sizes and shapes, writing a
// JSON trajectory (BENCH_degraded.json). The run doubles as a regression
// gate: it fails if any point's optimality gap exceeds the limits or the
// pod-local path stops being -degraded-speedup-floor times faster.

// degradedPoint is one (failure count, burst shape) cell.
type degradedPoint struct {
	N        int    `json:"n"`
	Pods     int    `json:"pods"`
	Failures int    `json:"failures"`
	Shape    string `json:"shape"`
	// PodNS and FlatNS are mean per-plan latencies over the load sweep;
	// Speedup is their ratio.
	PodNS   int64   `json:"pod_ns"`
	FlatNS  int64   `json:"flat_ns"`
	Speedup float64 `json:"speedup"`
	// GapMean and GapWorst are positive-part power gaps of the pod-local
	// plan against the flat degraded reference over the load sweep.
	GapMean  float64 `json:"gap_mean"`
	GapWorst float64 `json:"gap_worst"`
}

// degradedBench is the file schema.
type degradedBench struct {
	GeneratedUnix int64           `json:"generated_unix"`
	GapMeanLimit  float64         `json:"gap_mean_limit"`
	GapLimit      float64         `json:"gap_limit"`
	SpeedupFloor  float64         `json:"speedup_floor"`
	Points        []degradedPoint `json:"points"`
}

// runDegradedBench measures one room size across failure bursts
// {1, 8, 64} (clipped to n/4) in both shapes and writes the trajectory
// to path.
func runDegradedBench(out io.Writer, path string, n, podCount int, gapMeanLimit, gapLimit, speedupFloor float64) error {
	if podCount < 1 {
		return fmt.Errorf("degraded bench needs at least 1 pod, got %d", podCount)
	}
	p := syntheticProfile(n)
	pods, err := coolopt.NewPodSnapshot(p, 0, coolopt.WithPodCount(podCount))
	if err != nil {
		return fmt.Errorf("pod tree n=%d: %w", n, err)
	}
	res := degradedBench{
		GeneratedUnix: benchClock.Now().Unix(),
		GapMeanLimit:  gapMeanLimit, GapLimit: gapLimit, SpeedupFloor: speedupFloor,
	}

	var failures []int
	for _, f := range []int{1, 8, 64} {
		if f <= n/4 {
			failures = append(failures, f)
		}
	}
	shapes := []struct {
		name  string
		burst func(n, f int) []int
	}{
		{"concentrated", faults.ConcentratedBurst},
		{"spread", faults.SpreadBurst},
	}
	loadFracs := []float64{0.2, 0.45, 0.7}

	for _, f := range failures {
		for _, shape := range shapes {
			avoid := shape.burst(n, f)
			blocked := make(map[int]bool, f)
			for _, id := range avoid {
				blocked[id] = true
			}
			pool := make([]int, 0, n-f)
			for i := 0; i < n; i++ {
				if !blocked[i] {
					pool = append(pool, i)
				}
			}
			pt := degradedPoint{N: n, Pods: pods.Pods(), Failures: f, Shape: shape.name}
			var podTotal, flatTotal time.Duration
			var gapSum float64
			for _, frac := range loadFracs {
				load := frac * float64(len(pool))
				var podPlan, flatPlan *coolopt.Plan
				podD, err := bestOf(3, func() error {
					var err error
					podPlan, err = pods.PlanAvoiding(load, avoid)
					return err
				})
				if err != nil {
					return fmt.Errorf("pod degraded plan n=%d f=%d %s load %.1f: %w", n, f, shape.name, load, err)
				}
				flatD, err := bestOf(1, func() error {
					flatPlan = p.PlanOver(pool, load)
					if flatPlan == nil {
						return fmt.Errorf("flat degraded sweep infeasible")
					}
					return nil
				})
				if err != nil {
					return fmt.Errorf("flat degraded plan n=%d f=%d %s load %.1f: %w", n, f, shape.name, load, err)
				}
				podTotal += podD
				flatTotal += flatD
				gap := float64(p.PlanPower(podPlan)-p.PlanPower(flatPlan)) / float64(p.PlanPower(flatPlan))
				if gap < 0 {
					gap = 0 // the pod-local plan beat the flat prefix sweep
				}
				if gap > pt.GapWorst {
					pt.GapWorst = gap
				}
				gapSum += gap
			}
			pt.PodNS = podTotal.Nanoseconds() / int64(len(loadFracs))
			pt.FlatNS = flatTotal.Nanoseconds() / int64(len(loadFracs))
			if pt.PodNS > 0 {
				pt.Speedup = float64(pt.FlatNS) / float64(pt.PodNS)
			}
			pt.GapMean = gapSum / float64(len(loadFracs))

			if pt.GapWorst > gapLimit {
				return fmt.Errorf("degraded gap regression at f=%d %s: worst %.3f%% exceeds limit %.3f%%",
					f, shape.name, 100*pt.GapWorst, 100*gapLimit)
			}
			if pt.GapMean > gapMeanLimit {
				return fmt.Errorf("degraded gap regression at f=%d %s: mean %.3f%% exceeds limit %.3f%%",
					f, shape.name, 100*pt.GapMean, 100*gapMeanLimit)
			}
			if pt.Speedup < speedupFloor {
				return fmt.Errorf("degraded speedup regression at f=%d %s: %.1f× below the %.1f× floor (pod %v vs flat %v)",
					f, shape.name, pt.Speedup, speedupFloor,
					time.Duration(pt.PodNS), time.Duration(pt.FlatNS))
			}
			res.Points = append(res.Points, pt)
			fmt.Fprintf(out, "degraded n=%d (%d pods) f=%d %-12s: pod %v vs flat %v (%.0f×), gap %.3f%% mean %.3f%% worst\n",
				n, pt.Pods, f, shape.name,
				time.Duration(pt.PodNS), time.Duration(pt.FlatNS), pt.Speedup,
				100*pt.GapMean, 100*pt.GapWorst)
		}
	}

	data, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote degraded-planning trajectory to %s\n", path)
	return nil
}

// runDegradedChaos runs the degraded-serving chaos scenario: a pod-only
// engine behind loopback HTTP, hammered with avoid= requests through an
// overload window and a slow snapshot install. Any serving-contract
// violation fails the run.
func runDegradedChaos(out io.Writer, n, podCount int) error {
	rep, err := chaos.RunDegradedServing(chaos.ServingOptions{N: n, Pods: podCount})
	if err != nil {
		return fmt.Errorf("degraded serving chaos: %w", err)
	}
	fmt.Fprintf(out, "degraded serving chaos n=%d (%d pods): %s\n", n, podCount, rep)
	fmt.Fprintln(out, "verdict: every response was 200/400/503, every 503 carried Retry-After, readiness flipped across the install")
	return nil
}
