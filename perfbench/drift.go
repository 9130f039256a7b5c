package main

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"coolopt/internal/core"
	"coolopt/internal/engine"
)

// drift-patch: the planner tree serving writes beside reads. One
// goroutine feeds seeded drift batches through Engine.InstallPatch — two
// concentrated in one pod for every one spread across pods — while one
// client plans distinct loads. Leaf rebuilds and epoch commits do the
// work, and every install invalidates the plan cache.

// driftConfig sizes the drift-patch workload. The batch mix and the
// installer's pause are assumptions; README.md says what each was chosen
// for.
type driftConfig struct {
	machines           int
	setups             int
	healthy, degraded  int           // plans per planner round
	concK, spreadK     int           // machines per concentrated and per spread batch
	pause              time.Duration // installer's pause between rounds of batches
	power              int           // demand levels in the plan-power list
	planTail, instTail tailSpec
}

var (
	// A 20 s run holds about 550 healthy plans, so the plan tail is p95
	// (191 plans at least), and about 50 installs, a third of them
	// spread, so the install tail is p75 (39 installs at least), which
	// falls among the spread ones.
	driftFull = driftConfig{machines: 16384, setups: 3, healthy: 7, degraded: 1, concK: 16, spreadK: 8, pause: 500 * time.Millisecond, power: 16,
		planTail: tailSpec{pct: 95}, instTail: tailSpec{pct: 75}}
	driftToy = driftConfig{machines: 1024, setups: 2, healthy: 3, degraded: 1, concK: 4, spreadK: 3, pause: 10 * time.Millisecond, power: 3,
		planTail: tailSpec{pct: 50}, instTail: tailSpec{pct: 50}}
)

// driftBatches is the number of batches in an installer round.
const driftBatches = 3

func runDriftPatch(opt options) (*report, error) {
	cfg := driftFull
	if opt.toy {
		cfg = driftToy
	}
	rep := newReport()
	var tr *tracer
	if opt.trace {
		tr = newTracer()
		rep.tracer = tr
	}
	ph := newPhase()
	env, setupS, err := repeatSetup(cfg.setups, func() (*podEnv, error) {
		p := syntheticRoom(cfg.machines, opt.seed)
		var (
			ps  *core.PodSnapshot
			err error
		)
		_, d := tr.do("core.NewPodSnapshot", 0, 0, func() { ps, err = core.NewPodSnapshot(p, 0) })
		if err != nil {
			return nil, err
		}
		ph.add("core.build_s", d.Seconds())
		eng, err := engine.FromPodSnapshot(ps)
		if err != nil {
			return nil, err
		}
		return &podEnv{profile: p, pods: ps, eng: eng}, nil
	}, func(*podEnv) {})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setupS
	rep.e2e["heap_mb"] = liveHeapMB()
	rep.printf("drift-patch: %d machines, %d pods, depth %d, %d events, %.1f MB of tables; set-up %.3f s (median of %d)",
		cfg.machines, env.pods.Pods(), env.pods.Depth(), env.pods.Events(), float64(env.pods.TableBytes())/1e6, setupS, cfg.setups)

	r := rand.New(rand.NewSource(opt.seed*104729 + 7))
	levels := stratifiedLoads(r, cfg.machines, 0.10, 0.90, cfg.power, powerWidth)

	ph0 := newPhase()
	ref := driftPhase(env, env.eng, cfg, opt, nil, ph0, rep)
	m, line := ph0.endToEnd(cfg.planTail, cfg.instTail)
	for k, v := range m {
		rep.e2e[k] = v
	}
	rep.printf("%s", line)
	checkPodDrift(rep, env.eng, ref, levels)

	if tr != nil {
		eng, err := engine.FromPodSnapshot(env.pods)
		if err != nil {
			return nil, err
		}
		driftPhase(env, eng, cfg, opt, tr, ph, rep)
		traced, _ := ph.endToEnd(cfg.planTail, cfg.instTail)
		overhead(rep, traced)
		ph.gcCycles, ph.gcPause = ph0.gcCycles, ph0.gcPause
		ph.layerMetrics(rep.layer)
		rep.layer["core.events"] = float64(env.pods.Events())
		rep.layer["core.table_mb"] = float64(env.pods.TableBytes()) / 1e6
	}

	eng, err := engine.FromPodSnapshot(env.pods)
	if err != nil {
		return nil, err
	}
	rep.e2e["plan_power_kw"] = powerOfList(rep, eng, env.profile, levels)
	return rep, nil
}

// checkPodDrift checks that after the drift phase the engine's live pod
// tables plan every level bit-identically to a cold NewPodSnapshot of
// the same shape over the profile the benchmark patched itself.
func checkPodDrift(rep *report, eng *engine.Engine, ref *core.Profile, levels []float64) {
	live := eng.Pods()
	for i, m := range live.Profile().Machines {
		if !sameCoeffs(m, ref.Machines[i]) {
			rep.fail("after drift machine %d has %+v, the benchmark patched %+v", i, m, ref.Machines[i])
			return
		}
	}
	cold, err := core.NewPodSnapshot(ref, live.Epoch(), core.WithPodCount(live.Pods()), core.WithPodDepth(live.Depth()))
	if err != nil {
		rep.fail("cold pod snapshot over the patched profile: %v", err)
		return
	}
	for _, l := range levels {
		a, errA := live.Plan(l)
		b, errB := cold.Plan(l)
		if errA != nil || errB != nil {
			rep.fail("drift check at %.4f: live %v, cold %v", l, errA, errB)
			continue
		}
		if err := samePlan(a, b); err != nil {
			rep.fail("after drift the plan at %.4f differs from a cold build: %v", l, err)
		}
	}
}

// driftPhase runs the installer goroutine beside the planning client
// until the timed phase ends and both tails have their samples (each
// finishing its round), and returns the benchmark's own patched copy of
// the profile.
func driftPhase(env *podEnv, eng *engine.Engine, cfg driftConfig, opt options, tr *tracer, ph *phase, rep *report) *core.Profile {
	n := cfg.machines
	before := eng.Stats()
	stopGC := ph.gcWatch()
	deadline := secondsOf(opt.seconds)
	start := time.Now()

	// The profile the benchmark expects behind every epoch, so a plan is
	// checked against the generation that served it.
	var mu sync.Mutex
	profiles := map[uint64]*core.Profile{eng.Epoch(): copyProfile(env.profile)}
	profileOf := func(epoch uint64) *core.Profile {
		mu.Lock()
		defer mu.Unlock()
		return profiles[epoch]
	}

	// Each side goes on past the deadline until both tails have their
	// samples, so neither runs alone while the other catches up.
	planRounds, instRounds := minRounds(cfg.planTail, cfg.healthy), minRounds(cfg.instTail, driftBatches)
	var plannerRounds, installerRounds atomic.Int64
	going := func() bool {
		return time.Since(start) < deadline ||
			plannerRounds.Load() < int64(planRounds) || installerRounds.Load() < int64(instRounds)
	}

	instPh, instRep := newPhase(), newReport()
	ref := copyProfile(env.profile)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(opt.seed*7919 + 41))
		pods := podRanges(env.pods)
		req := int64(1) << 40
		for ; going(); installerRounds.Add(1) {
			if installerRounds.Load() > 0 {
				// The last pause before the deadline ends at it.
				pause := cfg.pause
				if left := deadline - time.Since(start); left > 0 && left < pause {
					pause = left
				}
				time.Sleep(pause)
			}
			for b := 0; b < driftBatches; b++ {
				shape := concentrated
				var batch []core.MachineDelta
				if b < 2 {
					j := r.Intn(len(pods))
					batch = concentratedBatch(r, env.profile, pods[j][0], pods[j][1], cfg.concK)
				} else {
					shape = spread
					batch = spreadBatch(r, env.profile, pods, cfg.spreadK)
				}
				next := copyProfile(ref)
				applyBatch(next, batch)
				want := eng.Epoch() + 1
				mu.Lock()
				profiles[want] = next
				mu.Unlock()
				req++
				instRep.attempted++
				epoch, d, err := install(eng, batch, shape, tr, instPh, req)
				if err != nil {
					instRep.opFail("install: %v", err)
					continue
				}
				if epoch != want {
					instRep.fail("install published epoch %d, want %d", epoch, want)
				}
				instPh.install = append(instPh.install, ms(d))
				ref = next
			}
		}
	}()

	r := rand.New(rand.NewSource(opt.seed*7919 + 43))
	bucketTol := 0.001*float64(n) + sumTol
	ctx := context.Background()
	var req int64
	for ; going(); plannerRounds.Add(1) {
		var round []planRequest
		for _, l := range stratifiedLoads(r, n, 0.05, 0.95, cfg.healthy, 0.8) {
			round = append(round, planRequest{load: l})
		}
		for _, l := range stratifiedLoads(r, n, 0.05, 0.95, cfg.degraded, 0.8) {
			round = append(round, planRequest{load: l, avoid: avoidList(r, n, 1+r.Intn(8))})
		}
		r.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for _, q := range round {
			req++
			rep.attempted++
			ph.requests++
			var (
				resp *engine.Response
				err  error
			)
			_, d := tr.do("engine.Plan", 0, req, func() { resp, err = eng.Plan(ctx, engine.Request{Load: q.load, Avoid: q.avoid}) })
			if err != nil {
				rep.opFail("plan at load %.4f: %v", q.load, err)
				continue
			}
			if q.avoid == nil {
				ph.plan = append(ph.plan, ms(d))
			} else {
				ph.degraded = append(ph.degraded, ms(d))
			}
			if p := profileOf(resp.Epoch); p == nil {
				rep.fail("plan served by unknown epoch %d", resp.Epoch)
			} else {
				rep.checkServed(p, resp, q.load, bucketTol, q.avoid)
			}
			if tr == nil || resp.Cached {
				continue
			}
			ps := eng.Pods()
			if q.avoid == nil {
				ph.add("engine.miss_overhead_ms", ms(d-replayPlan(tr, ph, rep, ps, q.load, req)))
			} else {
				var aerr error
				_, ad := tr.do("core.PlanAvoiding", 0, req, func() { _, aerr = ps.PlanAvoiding(q.load, q.avoid) })
				ph.add("core.avoid_ms", ms(ad))
				if aerr != nil {
					rep.fail("replaying the degraded plan at load %.4f: %v", q.load, aerr)
				}
			}
		}
	}
	ph.busy = time.Since(start)
	wg.Wait()
	stopGC()

	// Fold the installer's samples and outcomes in.
	ph.install = append(ph.install, instPh.install...)
	for k, v := range instPh.layer {
		ph.layer[k] = append(ph.layer[k], v...)
	}
	rep.attempted += instRep.attempted
	rep.failed += instRep.failed
	rep.checkErrs = append(rep.checkErrs, instRep.checkErrs...)
	rep.opErrs = append(rep.opErrs, instRep.opErrs...)

	after := eng.Stats()
	hits, misses := float64(after.CacheHits-before.CacheHits), float64(after.CacheMisses-before.CacheMisses)
	ph.add("engine.cache_misses", misses)
	if hits+misses > 0 {
		ph.add("engine.cache_hit_ratio", hits/(hits+misses))
	}
	ph.add("engine.stale_installs", float64(after.StaleInstalls-before.StaleInstalls))
	return ref
}
