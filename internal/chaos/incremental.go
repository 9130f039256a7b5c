package chaos

import (
	"context"
	"fmt"
	"math"
	"sync"

	"coolopt/internal/core"
	"coolopt/internal/engine"
	"coolopt/internal/faults"
	"coolopt/internal/mathx"
)

// This file is the incremental-install chaos scenario: two engines over
// one room — whole-room tables with retained crossings, and a pod tree —
// with a re-profiler trickling the same drift batches through both
// engines' pipelined PreparePatch/CommitInstall path (crossing splices
// and pod patches) while planner goroutines hammer every serving flavor
// — exact plans on the whole-room engine, hierarchical degraded plans
// around failure bursts and dual budget queries on the pod engine. The
// scenario passes only if the install pipeline's contract holds
// everywhere: every worker observes a monotonically non-decreasing
// epoch, every sampled answer is bit-identical to a recomputation
// against that epoch's recorded tables (no plan ever mixes generations),
// readiness never flaps across any of the commits, nothing is shed, and
// every trickled generation lands exactly once through the patch path
// of each engine.

// IncrementalOptions tunes RunIncrementalServing. Zero values pick the
// CI smoke size; paperbench -incremental-chaos raises the room.
type IncrementalOptions struct {
	// N is the room size; Pods the pod count (defaults 64 and 4).
	N    int
	Pods int
	// Seed drives the drift batches and query loads (default 1).
	Seed int64
	// Workers is the number of planner goroutines per serving flavor
	// (exact, degraded-hierarchical, budget; default 1 each).
	Workers int
	// Installs is the number of drift generations the installer trickles
	// through the pipeline (default 16).
	Installs int
	// MinQueries is the floor each worker must issue before it may stop,
	// so the hammer outlives the install trickle (default 48).
	MinQueries int
}

// IncrementalReport is the scenario's outcome; invariant violations are
// returned as an error by RunIncrementalServing.
type IncrementalReport struct {
	Installs   uint64 `json:"installs"`
	Queries    int    `json:"queries"`
	Verified   int    `json:"verified"`
	Degraded   int    `json:"degraded"`
	MaxLoads   int    `json:"maxLoads"`
	EpochsSeen int    `json:"epochsSeen"`
}

func (r *IncrementalReport) String() string {
	return fmt.Sprintf("%d pipelined installs under %d queries (%d bit-verified, %d degraded, %d budget); %d distinct epochs served",
		r.Installs, r.Queries, r.Verified, r.Degraded, r.MaxLoads, r.EpochsSeen)
}

// generation records the tables both engines publish at one epoch,
// captured BEFORE either commit so workers can replay any answer against
// the exact state it claims to come from.
type generation struct {
	snap *core.Snapshot
	pods *core.PodSnapshot
}

// RunIncrementalServing runs the scenario and returns the report, or an
// error describing the first pipeline-contract violation.
func RunIncrementalServing(opt IncrementalOptions) (*IncrementalReport, error) {
	if opt.N == 0 {
		opt.N = 64
	}
	if opt.Pods == 0 {
		opt.Pods = 4
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.Workers == 0 {
		opt.Workers = 1
	}
	if opt.Installs == 0 {
		opt.Installs = 16
	}
	if opt.MinQueries == 0 {
		opt.MinQueries = 48
	}

	machines := make([]core.MachineProfile, opt.N)
	for i := range machines {
		h := float64(i) / float64(opt.N)
		machines[i] = core.MachineProfile{Alpha: 1, Beta: 0.46 * (1 + 0.1*h), Gamma: 0.5 + 2.2*h}
	}
	profile := &core.Profile{
		W1: 52, W2: 34, CoolFactor: 150, SetPointC: 31,
		TMaxC: 65, TAcMinC: 10, TAcMaxC: 25,
		Machines: machines,
	}
	snap, err := core.NewSnapshot(profile, 0, core.WithPatchSupport())
	if err != nil {
		return nil, err
	}
	pods, err := core.NewPodSnapshot(profile, 0, core.WithPodCount(opt.Pods))
	if err != nil {
		return nil, err
	}
	// Exact cache keys so a cached answer is bit-identical to the
	// computation it memoized — the bit-verification below relies on it.
	flat, err := engine.FromSnapshot(snap, engine.WithExactCacheKeys())
	if err != nil {
		return nil, err
	}
	hier, err := engine.FromPodSnapshot(pods, engine.WithExactCacheKeys())
	if err != nil {
		return nil, err
	}
	engines := []*engine.Engine{flat, hier}

	var gens sync.Map // epoch uint64 → *generation
	gens.Store(uint64(0), &generation{snap: snap, pods: pods})

	rep := &IncrementalReport{}
	var (
		mu       sync.Mutex
		firstErr error
		epochs   = map[uint64]bool{}
		total    int // queries issued across all workers, guarded by mu
	)
	paced := sync.NewCond(&mu)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		paced.Broadcast()
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	bump := func() {
		mu.Lock()
		total++
		paced.Broadcast()
		mu.Unlock()
	}
	// waitQueries pauses the installer until the workers have issued at
	// least want queries (or the scenario failed). Pacing the trickle by
	// worker progress — not wall time, which the determinism contract
	// forbids anyway — keeps installs interleaved with serving no matter
	// how the scheduler slices a single core: workers are guaranteed to
	// observe several distinct generations, which the epoch-mix replay
	// below depends on. The installer re-anchors its target on the count
	// at each commit — a target fixed up front would be satisfied
	// instantly whenever the scheduler lets the workers sprint ahead,
	// letting every install then land back-to-back with no query in
	// between.
	waitQueries := func(want int) {
		mu.Lock()
		defer mu.Unlock()
		for total < want && firstErr == nil {
			paced.Wait()
		}
	}
	// installStride is how many worker queries must land between
	// consecutive installs.
	const installStride = 4

	// The installer trickles each drift generation through both engines'
	// pipelines. Both prepared states are recorded under their shared
	// epoch before either commit, so no worker can ever observe an epoch
	// whose tables are unknown.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		rng := mathx.NewRand(opt.Seed + 1000)
		target := installStride
		for g := 0; g < opt.Installs; g++ {
			waitQueries(target)
			if failed() {
				return
			}
			k := []int{1, 2, 4}[g%3]
			batch := driftBatch(rng, flat.Snapshot().Profile(), k)
			preps := make([]*engine.PreparedInstall, len(engines))
			for i, eng := range engines {
				prep, err := eng.PreparePatch(batch)
				if err != nil {
					fail(fmt.Errorf("install %d: prepare: %w", g, err))
					return
				}
				if !prep.Patched() {
					fail(fmt.Errorf("install %d fell off the patch path", g))
					return
				}
				preps[i] = prep
			}
			if preps[0].Epoch() != preps[1].Epoch() {
				fail(fmt.Errorf("install %d: engines prepared epochs %d and %d", g, preps[0].Epoch(), preps[1].Epoch()))
				return
			}
			gens.Store(preps[0].Epoch(), &generation{snap: preps[0].Snapshot(), pods: preps[1].Pods()})
			for i, eng := range engines {
				if err := eng.CommitInstall(preps[i]); err != nil {
					fail(fmt.Errorf("install %d: commit: %w", g, err))
					return
				}
			}
			// Re-anchor the pace on the progress at commit time, so the
			// next generation cannot land until the workers have served
			// queries against this one.
			mu.Lock()
			target = total + installStride
			mu.Unlock()
		}
	}()

	for w := 0; w < 3*opt.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := mathx.NewRand(opt.Seed + 17*int64(w) + 3)
			var last uint64
			seen := map[uint64]bool{}
			queries, verified, degraded, budgets := 0, 0, 0, 0
			for q := 0; ; q++ {
				select {
				case <-stop:
					if q >= opt.MinQueries {
						mu.Lock()
						rep.Queries += queries
						rep.Verified += verified
						rep.Degraded += degraded
						rep.MaxLoads += budgets
						for e := range seen {
							epochs[e] = true
						}
						mu.Unlock()
						return
					}
				default:
				}
				if failed() {
					return
				}
				// Readiness must hold at every sample: the pipelined
				// commit has no build window, so there is nothing to shed
				// around and nothing that may flap /v1/readyz.
				for _, eng := range engines {
					if ok, why := eng.Ready(); !ok {
						fail(fmt.Errorf("worker %d: readiness flapped mid-trickle: %s", w, why))
						return
					}
				}
				// Exact plans go to the whole-room engine, the other
				// flavors to the pod engine.
				eng := hier
				if w%3 == 0 {
					eng = flat
				}
				epoch, v, d, b, err := oneIncrementalQuery(&gens, eng, rng, opt.N, w%3, q)
				if err != nil {
					fail(fmt.Errorf("worker %d query %d: %w", w, q, err))
					return
				}
				if epoch < last {
					fail(fmt.Errorf("worker %d: epoch went backwards: %d after %d", w, epoch, last))
					return
				}
				last = epoch
				seen[epoch] = true
				queries++
				verified += v
				degraded += d
				budgets += b
				bump()
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return rep, firstErr
	}
	rep.EpochsSeen = len(epochs)

	for _, eng := range engines {
		if got := eng.Epoch(); got != uint64(opt.Installs) {
			return rep, fmt.Errorf("final epoch %d, want %d", got, opt.Installs)
		}
		s := eng.Stats()
		rep.Installs += s.PipelinedInstalls
		if s.PipelinedInstalls != uint64(opt.Installs) || s.PatchInstalls != uint64(opt.Installs) {
			return rep, fmt.Errorf("install accounting: %d pipelined / %d patched, want %d of both",
				s.PipelinedInstalls, s.PatchInstalls, opt.Installs)
		}
		if s.StaleInstalls != 0 {
			return rep, fmt.Errorf("single installer lost %d epoch races", s.StaleInstalls)
		}
		if s.ShedOverload != 0 {
			return rep, fmt.Errorf("%d queries shed during the trickle", s.ShedOverload)
		}
	}
	return rep, nil
}

// driftBatch builds one valid drift batch of k machines against the live
// profile: multiplicative α/β jitter (sign-preserving, so Validate always
// passes) plus a small additive γ walk.
func driftBatch(rng *mathx.Rand, p *core.Profile, k int) []core.MachineDelta {
	ids := rng.Perm(p.Size())[:k]
	batch := make([]core.MachineDelta, k)
	for i, id := range ids {
		m := p.Machines[id]
		m.Alpha *= rng.Uniform(0.99, 1.01)
		m.Beta *= rng.Uniform(0.97, 1.03)
		m.Gamma += rng.Uniform(-0.1, 0.1)
		batch[i] = core.MachineDelta{ID: id, Machine: m}
	}
	return batch
}

// oneIncrementalQuery issues one planning query of the worker's flavor
// and replays sampled answers against the recorded generation they claim
// to come from. Returns the served epoch and how the query counted
// (verified / degraded / budget).
func oneIncrementalQuery(gens *sync.Map, eng *engine.Engine, rng *mathx.Rand, n, flavor, q int) (uint64, int, int, int, error) {
	ctx := context.Background()
	switch flavor {
	case 1: // hierarchical degraded plans around failure bursts
		f := 1 + rng.Intn(4)
		var avoid []int
		if q%2 == 0 {
			avoid = faults.ConcentratedBurst(n, f)
		} else {
			avoid = faults.SpreadBurst(n, f)
		}
		load := rng.Uniform(0.2, 0.6) * float64(n-f)
		resp, err := eng.Plan(ctx, engine.Request{Load: load, Avoid: avoid})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if !resp.Degraded || !resp.Hierarchical {
			return 0, 0, 0, 0, fmt.Errorf("degraded=%t hierarchical=%t, want both", resp.Degraded, resp.Hierarchical)
		}
		blocked := make(map[int]bool, len(avoid))
		for _, id := range avoid {
			blocked[id] = true
		}
		for _, id := range resp.Plan.On {
			if blocked[id] {
				return 0, 0, 0, 0, fmt.Errorf("avoided machine %d powered on at epoch %d", id, resp.Epoch)
			}
		}
		verified := 0
		if q%4 == 0 && resp.ShedLoad == 0 {
			g, err := recorded(gens, resp.Epoch)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			want, err := g.pods.PlanAvoiding(load, avoid)
			if err != nil {
				return 0, 0, 0, 0, fmt.Errorf("replay at epoch %d: %w", resp.Epoch, err)
			}
			if err := samePlan(resp.Plan, want); err != nil {
				return 0, 0, 0, 0, fmt.Errorf("epoch-%d degraded answer mixed generations: %w", resp.Epoch, err)
			}
			verified = 1
		}
		return resp.Epoch, verified, 1, 0, nil

	case 2: // dual budget queries plus hierarchical plans
		if q%2 == 0 {
			budget := rng.Uniform(0.3, 0.9) * float64(n) * 86
			if _, err := eng.MaxLoad(budget); err != nil {
				return 0, 0, 0, 0, fmt.Errorf("MaxLoad(%.0f W): %w", budget, err)
			}
			return eng.Epoch(), 0, 0, 1, nil
		}
		load := rng.Uniform(0.1, 0.7) * float64(n)
		resp, err := eng.Plan(ctx, engine.Request{Load: load})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		verified := 0
		if q%4 == 1 {
			g, err := recorded(gens, resp.Epoch)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			want, err := g.pods.Plan(load)
			if err != nil {
				return 0, 0, 0, 0, fmt.Errorf("replay at epoch %d: %w", resp.Epoch, err)
			}
			if err := samePlan(resp.Plan, want); err != nil {
				return 0, 0, 0, 0, fmt.Errorf("epoch-%d hierarchical answer mixed generations: %w", resp.Epoch, err)
			}
			verified = 1
		}
		return resp.Epoch, verified, 0, 0, nil

	default: // exact whole-room plans
		load := rng.Uniform(0.1, 0.8) * float64(n)
		resp, err := eng.Plan(ctx, engine.Request{Load: load})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		verified := 0
		if q%4 == 0 {
			g, err := recorded(gens, resp.Epoch)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			want, err := g.snap.Plan(load)
			if err != nil {
				return 0, 0, 0, 0, fmt.Errorf("replay at epoch %d: %w", resp.Epoch, err)
			}
			if err := samePlan(resp.Plan, want); err != nil {
				return 0, 0, 0, 0, fmt.Errorf("epoch-%d exact answer mixed generations: %w", resp.Epoch, err)
			}
			verified = 1
		}
		return resp.Epoch, verified, 0, 0, nil
	}
}

// recorded looks up the generation published at the given epoch; a miss
// means a worker saw an epoch that was never prepared.
func recorded(gens *sync.Map, epoch uint64) (*generation, error) {
	v, ok := gens.Load(epoch)
	if !ok {
		return nil, fmt.Errorf("served epoch %d has no recorded generation", epoch)
	}
	return v.(*generation), nil
}

// samePlan asserts two plans are bit-identical: same machine set, same
// per-machine loads and supply command to the last bit.
func samePlan(got, want *core.Plan) error {
	if len(got.On) != len(want.On) {
		return fmt.Errorf("|On| = %d vs %d", len(got.On), len(want.On))
	}
	for i := range got.On {
		if got.On[i] != want.On[i] {
			return fmt.Errorf("On[%d] = %d vs %d", i, got.On[i], want.On[i])
		}
	}
	if len(got.Loads) != len(want.Loads) {
		return fmt.Errorf("|Loads| = %d vs %d", len(got.Loads), len(want.Loads))
	}
	for i := range got.Loads {
		if math.Float64bits(got.Loads[i]) != math.Float64bits(want.Loads[i]) {
			return fmt.Errorf("Loads[%d] = %v vs %v", i, got.Loads[i], want.Loads[i])
		}
	}
	if math.Float64bits(float64(got.TAcC)) != math.Float64bits(float64(want.TAcC)) {
		return fmt.Errorf("TAcC = %v vs %v", got.TAcC, want.TAcC)
	}
	return nil
}
