package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"coolopt"
	"coolopt/internal/clock"
	"coolopt/internal/core"
)

// This file implements -podsize-sweep: the measurement behind adaptive
// pod sizing. NewPodSnapshot's defaults (machines per pod and planner
// tree depth) come from an embedded calibration curve
// (internal/core/podsize_calibration.json); this sweep regenerates that
// curve by measuring, for each room size, every candidate (pod size,
// depth) configuration — table build time, table bytes, mean cold-plan
// service time, and (at sizes where the exact planner still runs) the
// optimality gap — and persisting the winner. The committed file is the
// output of this sweep on the reference hardware; rerun it with
// `make podsize-sweep` when the hardware or the kinetic builder changes.

// podsizeCandidate is one measured configuration for one room size.
type podsizeCandidate struct {
	PodSize     int     `json:"pod_size"`
	Depth       int     `json:"depth"`
	BuildMS     float64 `json:"build_ms"`
	TableMB     float64 `json:"table_mb"`
	ColdPlanNS  int64   `json:"cold_plan_ns"`
	GapWorstPct float64 `json:"gap_worst_pct,omitempty"`
}

// runPodSizeSweep measures the (pod size, depth) grid at room sizes
// {4096, 16384, 65536, 262144} up to maxN and writes the winning curve
// to path in the internal/core calibration schema. The winner per room
// size is the candidate with the fastest cold plan among those whose
// build fits buildLimit and whose measured gap (when an exact reference
// exists) stays within gapLimit.
func runPodSizeSweep(out io.Writer, path string, maxN, queries int, gapLimit float64, buildLimit time.Duration) error {
	sizes := []int{4096, 16384, 65536, 262144}
	podSizes := []int{128, 256, 512}
	depths := []int{2, 3}

	cur := core.DefaultCalibration()
	res := core.Calibration{HierThreshold: cur.HierThreshold}
	for _, n := range sizes {
		if n > maxN {
			continue
		}
		p := syntheticProfile(n)

		// One exact reference per room size, reused across candidates.
		var exact *coolopt.Snapshot
		if n <= hierExactMaxN {
			var err error
			exact, err = coolopt.NewSnapshot(p, 0, coolopt.WithMaxMachines(n))
			if err != nil {
				return fmt.Errorf("exact snapshot n=%d: %w", n, err)
			}
		}

		var best *podsizeCandidate
		for _, ps := range podSizes {
			if ps >= n {
				continue
			}
			for _, depth := range depths {
				// A depth-3 tree over a handful of pods degenerates to
				// depth 2; skip the duplicate measurement.
				if depth > 2 && n/ps < 64 {
					continue
				}
				cand, err := measurePodSize(p, n, ps, depth, queries, exact)
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "podsize n=%d pod_size=%d depth=%d: build %.0f ms, %.1f MB tables, cold plan %v",
					n, ps, depth, cand.BuildMS, cand.TableMB, time.Duration(cand.ColdPlanNS))
				if exact != nil {
					fmt.Fprintf(out, ", gap %.3f%% worst", cand.GapWorstPct)
				}
				switch {
				case buildLimit > 0 && cand.BuildMS > float64(buildLimit.Milliseconds()):
					fmt.Fprintln(out, "  [over build limit]")
					continue
				case exact != nil && cand.GapWorstPct > 100*gapLimit:
					fmt.Fprintln(out, "  [over gap limit]")
					continue
				}
				fmt.Fprintln(out)
				if best == nil || cand.ColdPlanNS < best.ColdPlanNS ||
					(cand.ColdPlanNS == best.ColdPlanNS && cand.BuildMS < best.BuildMS) {
					best = &cand
				}
			}
		}
		if best == nil {
			return fmt.Errorf("podsize sweep n=%d: no candidate fits build limit %v and gap limit %.1f%%",
				n, buildLimit, 100*gapLimit)
		}
		fmt.Fprintf(out, "podsize n=%d winner: pod_size=%d depth=%d\n", n, best.PodSize, best.Depth)
		res.Points = append(res.Points, core.CalibrationPoint{
			N: n, PodSize: best.PodSize, Depth: best.Depth,
			BuildMS: best.BuildMS, TableMB: best.TableMB, GapWorstPct: best.GapWorstPct,
		})
	}
	if len(res.Points) == 0 {
		return fmt.Errorf("podsize sweep measured nothing below -podsize-sweep-max-n %d", maxN)
	}

	data, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	// Round-trip through the parser so a sweep can never commit a curve
	// the embedding package would panic on.
	if _, err := core.ParseCalibration(data); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote pod-sizing calibration to %s\n", path)
	return nil
}

// measurePodSize builds one candidate configuration and measures it.
func measurePodSize(p *coolopt.Profile, n, podSize, depth, queries int, exact *coolopt.Snapshot) (podsizeCandidate, error) {
	var pods *coolopt.PodSnapshot
	buildD, err := bestOf(1, func() error {
		var err error
		pods, err = coolopt.NewPodSnapshot(p, 0,
			coolopt.WithPodSize(podSize), coolopt.WithPodDepth(depth))
		return err
	})
	if err != nil {
		return podsizeCandidate{}, fmt.Errorf("pod tree n=%d pod_size=%d depth=%d: %w", n, podSize, depth, err)
	}
	cand := podsizeCandidate{
		PodSize: podSize,
		Depth:   pods.Depth(),
		BuildMS: float64(buildD.Nanoseconds()) / 1e6,
		TableMB: float64(pods.TableBytes()) / (1 << 20),
	}

	if queries < 1 {
		queries = 1
	}
	start := benchClock.Now()
	for i := 0; i < queries; i++ {
		load := (0.1 + 0.7*float64(i)/float64(queries)) * float64(n)
		if _, err := pods.Plan(load); err != nil {
			return podsizeCandidate{}, fmt.Errorf("plan n=%d pod_size=%d depth=%d load %v: %w", n, podSize, depth, load, err)
		}
	}
	cand.ColdPlanNS = clock.Since(benchClock, start).Nanoseconds() / int64(queries)

	if exact != nil {
		for _, frac := range []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9} {
			load := frac * float64(n)
			want, err := exact.Plan(load)
			if err != nil {
				return podsizeCandidate{}, fmt.Errorf("exact plan n=%d load %v: %w", n, load, err)
			}
			got, err := pods.Plan(load)
			if err != nil {
				return podsizeCandidate{}, fmt.Errorf("hierarchical plan n=%d load %v: %w", n, load, err)
			}
			gap := 100 * float64(p.PlanPower(got)-p.PlanPower(want)) / float64(p.PlanPower(want))
			if gap > cand.GapWorstPct {
				cand.GapWorstPct = gap
			}
		}
	}
	return cand, nil
}
