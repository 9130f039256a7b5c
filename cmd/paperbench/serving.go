package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"coolopt"
	"coolopt/internal/clock"
)

// This file implements -serving-bench: a throughput measurement of the
// concurrent plan-serving layer (internal/engine) written as a JSON
// trajectory file (BENCH_serving.json). Each point freezes a synthetic
// profile into an immutable snapshot and hammers the engine from a
// fixed goroutine pool, so successive PRs can diff serving throughput
// the same way BENCH_consolidation.json tracks preprocessing cost.

// servingPoint is one room size of the trajectory. QPS figures are
// queries per second sustained by the whole goroutine pool.
type servingPoint struct {
	N          int `json:"n"`
	Goroutines int `json:"goroutines"`
	// SolveQueries is the query count used for the two expensive
	// operations (cold plans and maxload): a cold solve costs O(n²)-ish,
	// so the count scales down with n to keep the trajectory cheap to
	// regenerate.
	SolveQueries int `json:"solve_queries"`
	// SnapshotBuildNS is the cost of freezing the profile: deep copy,
	// validation, and the full consolidation preprocessing run.
	SnapshotBuildNS int64 `json:"snapshot_build_ns"`
	// Pods and PodBuildNS report the pod-sharded tables the engine
	// serves from at n ≥ coolopt.HierThreshold.
	Pods       int   `json:"pods,omitempty"`
	PodBuildNS int64 `json:"pod_build_ns,omitempty"`
	// PlanColdQPS uses a distinct load per query, defeating the plan
	// cache: every query runs the Eq. 21–23 solve. PlanHotQPS cycles a
	// small set of loads so most queries are cache or single-flight
	// hits. PlanZipfQPS draws loads from a Zipf popularity curve over
	// 256 demand levels — the production-shaped mix of hits and misses.
	PlanColdQPS float64 `json:"plan_cold_qps"`
	PlanHotQPS  float64 `json:"plan_hot_qps"`
	PlanZipfQPS float64 `json:"plan_zipf_qps"`
	// MaxLoadQPS answers §III-B budget queries; ConsolidateQPS answers
	// raw Eq. 21–22 table queries, each selecting its winning front set.
	MaxLoadQPS     float64 `json:"maxload_qps"`
	ConsolidateQPS float64 `json:"consolidate_qps"`
}

// servingBench is the file schema.
type servingBench struct {
	GeneratedUnix int64          `json:"generated_unix"`
	QueriesPerOp  int            `json:"queries_per_op"`
	Points        []servingPoint `json:"points"`
}

// hammer runs q queries across g goroutines pulling from a shared
// counter and returns the pool's aggregate queries-per-second.
func hammer(g, q int, fn func(i int) error) (float64, error) {
	var next atomic.Int64
	errs := make(chan error, g)
	start := benchClock.Now()
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= q {
					return
				}
				if err := fn(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return 0, err
	}
	secs := clock.Since(benchClock, start).Seconds()
	if secs <= 0 {
		secs = 1e-9 // fake clocks can report zero elapsed time
	}
	return float64(q) / secs, nil
}

// runServingBench measures sizes {64, 1024, 4096} up to maxN with
// goroutines concurrent clients and writes the trajectory to path.
func runServingBench(out io.Writer, path string, goroutines, queries, maxN int) error {
	if goroutines < 1 {
		return fmt.Errorf("serving bench needs at least 1 goroutine, got %d", goroutines)
	}
	ctx := context.Background()
	res := servingBench{GeneratedUnix: benchClock.Now().Unix(), QueriesPerOp: queries}
	for _, n := range []int{64, 1024, 4096} {
		if n > maxN {
			continue
		}
		p := syntheticProfile(n)
		var snap *coolopt.Snapshot
		buildD, err := bestOf(1, func() error {
			var err error
			snap, err = coolopt.NewSnapshot(p, 0, coolopt.WithMaxMachines(n))
			return err
		})
		if err != nil {
			return fmt.Errorf("snapshot n=%d: %w", n, err)
		}
		// Past the hierarchy threshold the production configuration
		// serves from pod tables — measure that.
		var pods *coolopt.PodSnapshot
		var podD time.Duration
		var eng *coolopt.Engine
		if n >= coolopt.HierThreshold {
			podD, err = bestOf(1, func() error {
				var err error
				pods, err = coolopt.NewPodSnapshot(p, 0)
				return err
			})
			if err != nil {
				return fmt.Errorf("pod tables n=%d: %w", n, err)
			}
			eng, err = coolopt.NewEngineFromPodSnapshot(pods)
		} else {
			eng, err = coolopt.NewEngineFromSnapshot(snap)
		}
		if err != nil {
			return fmt.Errorf("engine n=%d: %w", n, err)
		}

		// Cold solves and budget queries sweep the k loop, so their cost
		// grows superlinearly with n; shrink their query count at scale.
		solveQ := queries * 64 / n
		if solveQ < 16 {
			solveQ = 16
		}
		if solveQ > queries {
			solveQ = queries
		}
		// Feasible demand band: heavy enough to exercise the solve,
		// light enough that every scenario method stays feasible.
		loadIn := func(i, of int) float64 {
			frac := 0.1 + 0.7*float64(i)/float64(of)
			return frac * float64(n)
		}
		pt := servingPoint{N: n, Goroutines: goroutines, SolveQueries: solveQ, SnapshotBuildNS: buildD.Nanoseconds()}
		if pods != nil {
			pt.Pods = pods.Pods()
			pt.PodBuildNS = podD.Nanoseconds()
		}
		pt.PlanColdQPS, err = hammer(goroutines, solveQ, func(i int) error {
			_, err := eng.Plan(ctx, coolopt.PlanRequest{Load: loadIn(i, solveQ)})
			return err
		})
		if err != nil {
			return fmt.Errorf("plan cold n=%d: %w", n, err)
		}
		// Warm the hot set first so the hot figure measures pure cache /
		// single-flight throughput, not the 16 initial solves.
		for i := 0; i < 16; i++ {
			if _, err := eng.Plan(ctx, coolopt.PlanRequest{Load: loadIn(i, queries)}); err != nil {
				return fmt.Errorf("plan warm n=%d: %w", n, err)
			}
		}
		pt.PlanHotQPS, err = hammer(goroutines, queries, func(i int) error {
			_, err := eng.Plan(ctx, coolopt.PlanRequest{Load: loadIn(i%16, queries)})
			return err
		})
		if err != nil {
			return fmt.Errorf("plan hot n=%d: %w", n, err)
		}
		// Zipf mix: demand levels drawn from a popularity curve, so a few
		// loads dominate (cache hits) with a long tail of misses. The
		// sequence is pre-drawn — rand.Zipf is not goroutine-safe.
		zipfSrc := rand.NewZipf(rand.New(rand.NewSource(7)), 1.3, 1, 255)
		zipfLoads := make([]float64, queries)
		for i := range zipfLoads {
			zipfLoads[i] = loadIn(int(zipfSrc.Uint64()), 256)
		}
		pt.PlanZipfQPS, err = hammer(goroutines, queries, func(i int) error {
			_, err := eng.Plan(ctx, coolopt.PlanRequest{Load: zipfLoads[i]})
			return err
		})
		if err != nil {
			return fmt.Errorf("plan zipf n=%d: %w", n, err)
		}
		fullPowerW := float64(n)*(p.W1+p.W2) + p.CoolFactor*(p.SetPointC-p.TAcMinC)
		pt.MaxLoadQPS, err = hammer(goroutines, solveQ, func(i int) error {
			frac := 0.4 + 0.5*float64(i)/float64(solveQ)
			_, err := eng.MaxLoad(frac * fullPowerW)
			return err
		})
		if err != nil {
			return fmt.Errorf("maxload n=%d: %w", n, err)
		}
		pt.ConsolidateQPS, err = hammer(goroutines, queries, func(i int) error {
			_, err := eng.Consolidate(loadIn(i, queries), 1)
			return err
		})
		if err != nil {
			return fmt.Errorf("consolidate n=%d: %w", n, err)
		}
		res.Points = append(res.Points, pt)
		fmt.Fprintf(out, "serving n=%d (%d goroutines): snapshot %v, plan %.0f/s cold %.0f/s hot %.0f/s zipf, maxload %.0f/s, consolidate %.0f/s",
			n, goroutines, time.Duration(pt.SnapshotBuildNS),
			pt.PlanColdQPS, pt.PlanHotQPS, pt.PlanZipfQPS, pt.MaxLoadQPS, pt.ConsolidateQPS)
		if pt.Pods > 0 {
			fmt.Fprintf(out, " (%d pods, built in %v)", pt.Pods, time.Duration(pt.PodBuildNS))
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
	fmt.Fprintf(out, "wrote serving trajectory to %s\n", path)
	return nil
}
