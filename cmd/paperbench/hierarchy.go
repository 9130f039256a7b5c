package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"coolopt"
)

// This file implements -hierarchy-bench: a scaling measurement of the
// pod-sharded hierarchical planner (core.PodSnapshot), written as a JSON
// trajectory file (BENCH_hierarchy.json). It covers room sizes the
// whole-room kinetic tables cannot reach (the exact preprocessing is
// O(n² lg n) time and O(n²) memory), and at sizes where the exact
// planner still runs it measures the hierarchy's optimality gap — the
// run fails if the worst-case gap exceeds -hierarchy-gap-limit, so the
// bench doubles as a regression gate.

// hierarchyPoint is one room size of the trajectory.
type hierarchyPoint struct {
	N     int `json:"n"`
	Pods  int `json:"pods"`
	Depth int `json:"depth"`
	// BuildNS is the parallel pod-table build; Events and TableBytes sum
	// the per-pod kinetic structures.
	BuildNS    int64 `json:"build_ns"`
	Events     int   `json:"events"`
	TableBytes int   `json:"table_bytes"`
	// PlanColdNS is the mean service time per cold #8 plan (the inverse
	// of pool throughput — distinct loads, every query a cache miss);
	// PlanColdQPS and PlanHotQPS are engine throughput with distinct and
	// cycling loads respectively.
	PlanColdNS  int64   `json:"plan_cold_ns"`
	PlanColdQPS float64 `json:"plan_cold_qps"`
	PlanHotQPS  float64 `json:"plan_hot_qps"`
	// Gap statistics against the exact whole-room planner, present only
	// at sizes where the exact tables were built (n ≤ the exact cap).
	ExactBuildNS int64   `json:"exact_build_ns,omitempty"`
	GapMean      float64 `json:"gap_mean,omitempty"`
	GapWorst     float64 `json:"gap_worst,omitempty"`
}

// hierarchyBench is the file schema.
type hierarchyBench struct {
	GeneratedUnix int64   `json:"generated_unix"`
	GapLimit      float64 `json:"gap_limit"`
	// BuildLimitNS and ColdPlanLimitNS record the gates the run was held
	// to (0 = ungated): every point's table build and mean cold-plan
	// service time must come in under them or the run fails.
	BuildLimitNS    int64            `json:"build_limit_ns,omitempty"`
	ColdPlanLimitNS int64            `json:"cold_plan_limit_ns,omitempty"`
	Points          []hierarchyPoint `json:"points"`
}

// hierExactMaxN caps the exact reference build during -hierarchy-bench:
// past 4096 machines the whole-room tables are exactly what the
// hierarchy exists to avoid.
const hierExactMaxN = 4096

// runHierarchyBench measures sizes {256, 1024, 4096, 16384, 65536,
// 262144, 1048576} up to maxN and writes the trajectory to path. Sizes with an
// exact reference also sweep the optimality gap; a worst-case gap above
// gapLimit fails the run. depth > 0 pins the planner-tree depth (depth 3
// is the pods-of-pods configuration that reaches n=262144 and beyond);
// buildLimit and coldPlanLimit, when positive, gate every point's table
// build time and mean cold-plan service time.
func runHierarchyBench(out io.Writer, path string, goroutines, queries, maxN, podSize, depth int, gapLimit float64, buildLimit, coldPlanLimit time.Duration) error {
	if goroutines < 1 {
		return fmt.Errorf("hierarchy bench needs at least 1 goroutine, got %d", goroutines)
	}
	var podOpts []coolopt.PodOption
	if podSize > 0 {
		podOpts = append(podOpts, coolopt.WithPodSize(podSize))
	}
	if depth > 0 {
		podOpts = append(podOpts, coolopt.WithPodDepth(depth))
	}
	ctx := context.Background()
	res := hierarchyBench{
		GeneratedUnix:   benchClock.Now().Unix(),
		GapLimit:        gapLimit,
		BuildLimitNS:    buildLimit.Nanoseconds(),
		ColdPlanLimitNS: coldPlanLimit.Nanoseconds(),
	}
	for _, n := range []int{256, 1024, 4096, 16384, 65536, 262144, 1048576} {
		if n > maxN {
			continue
		}
		p := syntheticProfile(n)
		var pods *coolopt.PodSnapshot
		buildD, err := bestOf(1, func() error {
			var err error
			pods, err = coolopt.NewPodSnapshot(p, 0, podOpts...)
			return err
		})
		if err != nil {
			return fmt.Errorf("pod tables n=%d: %w", n, err)
		}
		eng, err := coolopt.NewEngineFromPodSnapshot(pods)
		if err != nil {
			return fmt.Errorf("engine n=%d: %w", n, err)
		}
		pt := hierarchyPoint{
			N: n, Pods: pods.Pods(), Depth: pods.Depth(), BuildNS: buildD.Nanoseconds(),
			Events: pods.Events(), TableBytes: pods.TableBytes(),
		}
		if buildLimit > 0 && buildD > buildLimit {
			return fmt.Errorf("hierarchy build regression at n=%d depth %d: %v exceeds limit %v",
				n, pt.Depth, buildD, buildLimit)
		}

		loadIn := func(i, of int) float64 {
			frac := 0.1 + 0.7*float64(i)/float64(of)
			return frac * float64(n)
		}
		pt.PlanColdQPS, err = hammer(goroutines, queries, func(i int) error {
			_, err := eng.Plan(ctx, coolopt.PlanRequest{Load: loadIn(i, queries)})
			return err
		})
		if err != nil {
			return fmt.Errorf("plan cold n=%d: %w", n, err)
		}
		pt.PlanColdNS = int64(1e9 / pt.PlanColdQPS)
		if coldPlanLimit > 0 && pt.PlanColdNS > coldPlanLimit.Nanoseconds() {
			return fmt.Errorf("hierarchy cold-plan regression at n=%d depth %d: %v exceeds limit %v",
				n, pt.Depth, time.Duration(pt.PlanColdNS), coldPlanLimit)
		}
		pt.PlanHotQPS, err = hammer(goroutines, queries, func(i int) error {
			_, err := eng.Plan(ctx, coolopt.PlanRequest{Load: loadIn(i%16, queries)})
			return err
		})
		if err != nil {
			return fmt.Errorf("plan hot n=%d: %w", n, err)
		}

		if n <= hierExactMaxN {
			var exact *coolopt.Snapshot
			exactD, err := bestOf(1, func() error {
				var err error
				exact, err = coolopt.NewSnapshot(p, 0, coolopt.WithMaxMachines(n))
				return err
			})
			if err != nil {
				return fmt.Errorf("exact snapshot n=%d: %w", n, err)
			}
			pt.ExactBuildNS = exactD.Nanoseconds()
			var sum float64
			fracs := []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9}
			for _, frac := range fracs {
				load := frac * float64(n)
				want, err := exact.Plan(load)
				if err != nil {
					return fmt.Errorf("exact plan n=%d load %v: %w", n, load, err)
				}
				got, err := pods.Plan(load)
				if err != nil {
					return fmt.Errorf("hierarchical plan n=%d load %v: %w", n, load, err)
				}
				gap := float64(p.PlanPower(got)-p.PlanPower(want)) / float64(p.PlanPower(want))
				if gap > pt.GapWorst {
					pt.GapWorst = gap
				}
				sum += gap
			}
			pt.GapMean = sum / float64(len(fracs))
			if pt.GapWorst > gapLimit {
				return fmt.Errorf("hierarchy gap regression at n=%d: worst %.3f%% exceeds limit %.3f%%",
					n, 100*pt.GapWorst, 100*gapLimit)
			}
		}
		res.Points = append(res.Points, pt)
		fmt.Fprintf(out, "hierarchy n=%d (%d pods, depth %d): build %v (%d B tables), plan %.0f/s cold (%v) %.0f/s hot",
			n, pt.Pods, pt.Depth, time.Duration(pt.BuildNS), pt.TableBytes,
			pt.PlanColdQPS, time.Duration(pt.PlanColdNS), pt.PlanHotQPS)
		if pt.ExactBuildNS > 0 {
			fmt.Fprintf(out, ", gap %.3f%% mean %.3f%% worst (exact build %v)",
				100*pt.GapMean, 100*pt.GapWorst, time.Duration(pt.ExactBuildNS))
		}
		fmt.Fprintln(out)
	}

	data, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote hierarchy trajectory to %s\n", path)
	return nil
}
