package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"coolopt/internal/core"
	"coolopt/internal/engine"
)

// phase collects one timed phase's samples. Times are in milliseconds.
type phase struct {
	plan, degraded, install []float64
	requests                int
	busy                    time.Duration
	layer                   map[string][]float64
	gcCycles                uint32
	gcPause                 time.Duration
}

func newPhase() *phase { return &phase{layer: make(map[string][]float64)} }

// add records one per-layer sample.
func (ph *phase) add(metric string, v float64) {
	ph.layer[metric] = append(ph.layer[metric], v)
}

// gcWatch returns a function that stores the GC cycles and pause time
// since gcWatch was called into the phase.
func (ph *phase) gcWatch() func() {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	return func() {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		ph.gcCycles = after.NumGC - before.NumGC
		ph.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	}
}

// endToEnd returns the latency, throughput and install metrics of the
// phase, and a line saying which percentile the tails are.
func (ph *phase) endToEnd(planTail, instTail tailSpec) (map[string]float64, string) {
	planV, planBlocks := tail(ph.plan, planTail)
	instV, instBlocks := tail(ph.install, instTail)
	m := map[string]float64{
		"plan_p50_ms":     median(ph.plan),
		"plan_tail_ms":    planV,
		"degraded_p50_ms": median(ph.degraded),
		"install_p50_ms":  median(ph.install),
		"install_tail_ms": instV,
	}
	if ph.busy > 0 {
		m["plan_qps"] = float64(ph.requests) / ph.busy.Seconds()
	}
	line := fmt.Sprintf("plan_tail_ms is p%g of %d healthy plans (median of %d blocks); install_tail_ms is p%g of %d installs (median of %d blocks); %d degraded plans; %d requests in %.2f s",
		planTail.pct, len(ph.plan), planBlocks, instTail.pct, len(ph.install), instBlocks, len(ph.degraded), ph.requests, ph.busy.Seconds())
	return m, line
}

// minRounds is the number of whole rounds, of perRound samples each, that
// a tail needs.
func minRounds(t tailSpec, perRound int) int {
	return (t.need() + perRound - 1) / perRound
}

// layerMetrics folds the per-layer samples into one value per metric:
// the median of times, the mean of sizes and counts.
func (ph *phase) layerMetrics(into map[string]float64) {
	for name, xs := range ph.layer {
		switch unitOf(name) {
		case "ms", "us", "s":
			into[name] = median(xs)
		default:
			var sum float64
			for _, x := range xs {
				sum += x
			}
			into[name] = sum / float64(len(xs))
		}
	}
	into["runtime.gc_cycles"] = float64(ph.gcCycles)
	into["runtime.gc_pause_ms"] = ms(ph.gcPause)
}

func unitOf(metric string) string {
	for _, d := range perLayer {
		if d.name == metric {
			return d.unit
		}
	}
	return ""
}

// liveHeapMB returns the live heap in MB after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// repeatSetup builds a workload's environment count times from scratch
// and keeps the last one; each earlier one is released before the next
// build so two never share the heap. It returns the median set-up time
// in seconds.
func repeatSetup[E any](count int, build func() (E, error), release func(E)) (E, float64, error) {
	var (
		env   E
		times []float64
	)
	for i := 0; i < count; i++ {
		if i > 0 {
			release(env)
			var zero E
			env = zero
			runtime.GC()
		}
		start := time.Now()
		var err error
		env, err = build()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return env, median(times), nil
}

// replayPlan replays one cold plan as the three calls the planner tree
// makes inside PodSnapshot.Plan — Select, SolveBounded, ValidatePlan —
// under one parent span, and returns the parent's duration.
func replayPlan(tr *tracer, ph *phase, rep *report, ps *core.PodSnapshot, load float64, req int64) time.Duration {
	parent := tr.open("core.plan", 0, req)
	var (
		union []int
		pl    *core.Plan
		err   error
	)
	_, d := tr.do("core.Select", parent, req, func() { union, err = ps.Select(load) })
	ph.add("core.select_ms", ms(d))
	ph.add("core.union_size", float64(len(union)))
	if err == nil {
		_, d = tr.do("core.SolveBounded", parent, req, func() { pl, err = ps.Profile().SolveBounded(union, load) })
		ph.add("core.solve_ms", ms(d))
	}
	if err == nil {
		_, d = tr.do("core.ValidatePlan", parent, req, func() { err = ps.Profile().ValidatePlan(pl, load, 1e-6) })
		ph.add("core.validate_ms", ms(d))
	}
	if err != nil {
		rep.fail("replaying the plan at load %.4f: %v", load, err)
	}
	return tr.close(parent)
}

// batchShape names a drift batch's shape for the per-layer patch times.
type batchShape int

const (
	concentrated batchShape = iota
	spread
)

// install publishes a drift batch. Untraced it is one Engine.InstallPatch
// call. Traced it first times the snapshot's own Patch on the live
// tables (discarding the result), then installs through PreparePatch and
// CommitInstall under their own spans. It returns the published epoch
// and the install's wall time.
func install(eng *engine.Engine, batch []core.MachineDelta, shape batchShape, tr *tracer, ph *phase, req int64) (uint64, time.Duration, error) {
	if tr == nil {
		start := time.Now()
		epoch, err := eng.InstallPatch(batch)
		return epoch, time.Since(start), err
	}
	var err error
	if ps := eng.Pods(); ps != nil {
		_, d := tr.do("core.PodSnapshot.Patch", 0, req, func() { _, err = ps.Patch(batch) })
		if shape == spread {
			ph.add("core.patch_spread_ms", ms(d))
		} else {
			ph.add("core.patch_ms", ms(d))
		}
		pods := make(map[int]bool)
		for _, dl := range batch {
			j, perr := ps.PodIndex(dl.ID)
			if perr != nil {
				return 0, 0, perr
			}
			pods[j] = true
		}
		ph.add("core.pods_touched", float64(len(pods)))
	} else {
		snap := eng.Snapshot()
		_, d := tr.do("core.Snapshot.Patch", 0, req, func() { _, err = snap.Patch(batch, core.WithPatchSupport()) })
		ph.add("core.flat_patch_ms", ms(d))
	}
	if err != nil {
		return 0, 0, err
	}
	var total time.Duration
	for attempt := 0; attempt < 4; attempt++ {
		var prep *engine.PreparedInstall
		_, d := tr.do("engine.PreparePatch", 0, req, func() { prep, err = eng.PreparePatch(batch) })
		ph.add("engine.prepare_ms", ms(d))
		total += d
		if err != nil {
			return 0, total, err
		}
		_, d = tr.do("engine.CommitInstall", 0, req, func() { err = eng.CommitInstall(prep) })
		ph.add("engine.commit_us", us(d))
		total += d
		if err == nil {
			return prep.Epoch(), total, nil
		}
		if !errors.Is(err, engine.ErrStaleInstall) {
			return 0, total, err
		}
	}
	return 0, total, err
}
