package main

import (
	"context"
	"math/rand"
	"time"

	"coolopt/internal/core"
	"coolopt/internal/engine"
)

// cold-large: one closed-loop client plans distinct demand levels on a
// pod-only engine over a fleet-sized synthetic room. Every request lands
// in its own cache bucket, so the cold hierarchical path — water-fill,
// leaf table lookups, union refinement, SolveBounded — does all the work.

// coldConfig sizes the cold-large workload. The request mix and install
// cadence are assumptions; README.md says what each was chosen for.
type coldConfig struct {
	machines           int
	setups             int
	healthy, degraded  int // requests per round, shuffled
	installEvery       int // requests between drift installs
	batch              int // machines per drift batch
	power              int // demand levels in the plan-power list
	planTail, instTail tailSpec
}

var (
	// A 20 s run holds about 50 healthy plans, so the plan tail is p75
	// (39 plans, five rounds at least), and fewer than 20 installs, whose
	// tail is therefore their median.
	coldFull = coldConfig{machines: 65536, setups: 3, healthy: 9, degraded: 3, installEvery: 4, batch: 16, power: 8,
		planTail: tailSpec{pct: 75}, instTail: tailSpec{pct: 50}}
	coldToy = coldConfig{machines: 1024, setups: 2, healthy: 3, degraded: 1, installEvery: 4, batch: 4, power: 3,
		planTail: tailSpec{pct: 50}, instTail: tailSpec{pct: 50}}
)

// podEnv is what set-up leaves ready to serve on the pod workloads.
type podEnv struct {
	profile *core.Profile
	pods    *core.PodSnapshot
	eng     *engine.Engine
}

func runColdLarge(opt options) (*report, error) {
	cfg := coldFull
	if opt.toy {
		cfg = coldToy
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
	rep.printf("cold-large: %d machines, %d pods, depth %d, %d events, %.1f MB of tables; set-up %.3f s (median of %d)",
		cfg.machines, env.pods.Pods(), env.pods.Depth(), env.pods.Events(), float64(env.pods.TableBytes())/1e6, setupS, cfg.setups)

	ph0 := coldPhase(env, env.eng, cfg, opt, nil, newPhase(), rep)
	m, line := ph0.endToEnd(cfg.planTail, cfg.instTail)
	for k, v := range m {
		rep.e2e[k] = v
	}
	rep.printf("%s", line)

	if tr != nil {
		eng, err := engine.FromPodSnapshot(env.pods)
		if err != nil {
			return nil, err
		}
		coldPhase(env, eng, cfg, opt, tr, ph, rep)
		traced, _ := ph.endToEnd(cfg.planTail, cfg.instTail)
		overhead(rep, traced)
		ph.gcCycles, ph.gcPause = ph0.gcCycles, ph0.gcPause
		ph.layerMetrics(rep.layer)
		rep.layer["core.events"] = float64(env.pods.Events())
		rep.layer["core.table_mb"] = float64(env.pods.TableBytes()) / 1e6
	}

	// Plan power over a fixed seeded list, on a fresh generation of the
	// room as set up.
	eng, err := engine.FromPodSnapshot(env.pods)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(opt.seed*104729 + 3))
	rep.e2e["plan_power_kw"] = powerOfList(rep, eng, env.profile, stratifiedLoads(r, cfg.machines, 0.10, 0.90, cfg.power, powerWidth))
	return rep, nil
}

// powerWidth keeps each plan-power level within the middle tenth of its
// stratum: the seed picks the exact levels, but the mean demand, which
// sets most of the mean power, hardly moves from seed to seed.
const powerWidth = 0.1

// powerOfList plans every level on eng and returns the mean total power
// (Eq. 9 + Eq. 10, evaluated by the benchmark) in kW.
func powerOfList(rep *report, eng *engine.Engine, p *core.Profile, levels []float64) float64 {
	var total float64
	for _, l := range levels {
		resp, err := eng.Plan(context.Background(), engine.Request{Load: l})
		if err != nil {
			rep.fail("plan-power level %.4f: %v", l, err)
			continue
		}
		rep.checkServed(p, resp, l, sumTol, nil)
		total += planPowerW(p, resp.Plan.On, resp.Plan.Loads, float64(resp.Plan.TAcC))
	}
	return total / float64(len(levels)) / 1000
}

// coldInstall installs one seeded drift batch concentrated in one pod
// and applies it to the benchmark's reference profile.
func coldInstall(env *podEnv, eng *engine.Engine, cfg coldConfig, r *rand.Rand, pods [][2]int, ref *core.Profile, tr *tracer, ph *phase, rep *report, req *int64) {
	j := r.Intn(len(pods))
	batch := concentratedBatch(r, env.profile, pods[j][0], pods[j][1], cfg.batch)
	*req++
	rep.attempted++
	_, d, err := install(eng, batch, concentrated, tr, ph, *req)
	if err != nil {
		rep.opFail("install: %v", err)
		return
	}
	ph.install = append(ph.install, ms(d))
	applyBatch(ref, batch)
}

// planRequest is one plan request of a round: a load and, for a
// degraded request, the machines to avoid.
type planRequest struct {
	load  float64
	avoid []int
}

// coldPhase runs the timed loop on eng: rounds of stratified distinct
// loads, one in four with a seeded avoid list, with a drift batch
// concentrated in one pod installed after every four requests, until
// --seconds have passed and the plan tail has its samples. With a tracer
// each plan is replayed through core and each install split into its
// stages.
func coldPhase(env *podEnv, eng *engine.Engine, cfg coldConfig, opt options, tr *tracer, ph *phase, rep *report) *phase {
	n := cfg.machines
	r := rand.New(rand.NewSource(opt.seed*7919 + 17))
	buckets := newBucketLoads(n)
	pods := podRanges(env.pods)
	ref := copyProfile(env.profile)
	before := eng.Stats()
	stopGC := ph.gcWatch()
	ctx := context.Background()
	var req int64
	plans := 0
	start := time.Now()
	for rounds := 0; time.Since(start) < secondsOf(opt.seconds) || rounds < minRounds(cfg.planTail, cfg.healthy); rounds++ {
		var round []planRequest
		for _, l := range stratifiedLoads(r, n, 0.05, 0.95, cfg.healthy, 0.8) {
			round = append(round, planRequest{load: buckets.next(r, l)})
		}
		for _, l := range stratifiedLoads(r, n, 0.05, 0.95, cfg.degraded, 0.8) {
			round = append(round, planRequest{load: buckets.next(r, l), avoid: avoidList(r, n, 1+r.Intn(8))})
		}
		r.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for k, q := range round {
			if k > 0 && k%cfg.installEvery == 0 {
				coldInstall(env, eng, cfg, r, pods, ref, tr, ph, rep, &req)
			}
			req++
			rep.attempted++
			ph.requests++
			plans++
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
			rep.checkServed(ref, resp, q.load, sumTol, q.avoid)
			if tr == nil {
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
		coldInstall(env, eng, cfg, r, pods, ref, tr, ph, rep, &req)
	}
	ph.busy = time.Since(start)
	stopGC()

	after := eng.Stats()
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	if hits != 0 || misses != uint64(plans) {
		rep.fail("cold-large expects every request to miss: %d requests, %d misses, %d hits", plans, misses, hits)
	}
	ph.add("engine.cache_misses", float64(misses))
	ph.add("engine.cache_hit_ratio", 0)
	ph.add("engine.stale_installs", float64(after.StaleInstalls-before.StaleInstalls))
	return ph
}
