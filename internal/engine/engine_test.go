package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"coolopt/internal/baseline"
	"coolopt/internal/core"
	"coolopt/internal/units"
)

// testProfile builds a small heterogeneous room in the paper's parameter
// regime (Table I-ish constants, jittered per-machine fits).
func testProfile(n int) *core.Profile {
	machines := make([]core.MachineProfile, n)
	for i := range machines {
		h := float64(i) / float64(n)
		machines[i] = core.MachineProfile{
			Alpha: 1.0,
			Beta:  0.46 * (1 + 0.1*h),
			Gamma: 0.5 + 2.2*h,
		}
	}
	return &core.Profile{
		W1: 52, W2: 34, CoolFactor: 150, SetPointC: 31,
		TMaxC: 65, TAcMinC: 10, TAcMaxC: 25,
		Machines: machines,
	}
}

func testSnapshot(t *testing.T, n int, epoch uint64) *core.Snapshot {
	t.Helper()
	snap, err := core.NewSnapshot(testProfile(n), epoch, core.WithMaxMachines(n))
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return snap
}

func testEngine(t *testing.T, n int) *Engine {
	t.Helper()
	e, err := FromSnapshot(testSnapshot(t, n, 0))
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return e
}

func TestPlanMatchesPlanner(t *testing.T) {
	e := testEngine(t, 12)
	ctx := context.Background()
	for _, load := range []float64{1.5, 4, 8.25} {
		resp, err := e.Plan(ctx, Request{Load: load})
		if err != nil {
			t.Fatalf("load %v: %v", load, err)
		}
		want, err := e.Planner().Plan(baseline.OptimalACCons, load)
		if err != nil {
			t.Fatalf("direct solve load %v: %v", load, err)
		}
		if len(resp.Plan.On) != len(want.On) {
			t.Fatalf("load %v: engine turned on %d machines, planner %d", load, len(resp.Plan.On), len(want.On))
		}
		if math.Abs(float64(resp.Plan.TAcC-want.TAcC)) > 1e-12 {
			t.Fatalf("load %v: TAcC %v vs %v", load, resp.Plan.TAcC, want.TAcC)
		}
		if math.Abs(resp.Plan.TotalLoad()-want.TotalLoad()) > 1e-9 {
			t.Fatalf("load %v: total %v vs %v", load, resp.Plan.TotalLoad(), want.TotalLoad())
		}
	}
}

func TestCacheHitAndEpochStamp(t *testing.T) {
	e := testEngine(t, 10)
	ctx := context.Background()
	first, err := e.Plan(ctx, Request{Load: 5})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Shared {
		t.Fatalf("first query claims reuse: %+v", first)
	}
	if first.Epoch != 0 {
		t.Fatalf("epoch = %d, want 0", first.Epoch)
	}
	second, err := e.Plan(ctx, Request{Load: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("identical query not served from cache")
	}
	if math.Abs(second.Plan.TotalLoad()-first.Plan.TotalLoad()) > 1e-12 {
		t.Fatal("cached plan differs from original")
	}
	// The zero method and the explicit paper method are the same query.
	third, err := e.Plan(ctx, Request{Load: 5, Method: baseline.OptimalACCons})
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached {
		t.Fatal("defaulted method missed the cache")
	}
}

func TestInstallSwapsSnapshotAndDropsCache(t *testing.T) {
	e := testEngine(t, 10)
	ctx := context.Background()
	if _, err := e.Plan(ctx, Request{Load: 5}); err != nil {
		t.Fatal(err)
	}
	if err := e.Install(testSnapshot(t, 10, 7)); err != nil {
		t.Fatal(err)
	}
	if e.Epoch() != 7 {
		t.Fatalf("epoch = %d, want 7", e.Epoch())
	}
	resp, err := e.Plan(ctx, Request{Load: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("cache survived a snapshot install")
	}
	if resp.Epoch != 7 {
		t.Fatalf("plan stamped with epoch %d, want 7", resp.Epoch)
	}
}

func TestDegradedPlanAvoidsFailedMachines(t *testing.T) {
	e := testEngine(t, 10)
	resp, err := e.Plan(context.Background(), Request{Load: 3, Avoid: []int{2, 5, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("avoid-list query not marked degraded")
	}
	for _, id := range resp.Plan.On {
		if id == 2 || id == 5 {
			t.Fatalf("failed machine %d powered on", id)
		}
	}
	if resp.ShedLoad > 0 {
		t.Fatalf("light load shed %v", resp.ShedLoad)
	}
	if math.Abs(resp.Plan.TotalLoad()-3) > 1e-9 {
		t.Fatalf("degraded plan carries %v, want 3", resp.Plan.TotalLoad())
	}
}

func TestDegradedPlanShedsWhenOverCapacity(t *testing.T) {
	e := testEngine(t, 6)
	avoid := []int{0, 1, 2, 3}
	resp, err := e.Plan(context.Background(), Request{Load: 5, Avoid: avoid, MarginC: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ShedLoad <= 0 || resp.Capacity <= 0 {
		t.Fatalf("5 units on 2 survivors should shed: %+v", resp)
	}
	if math.Abs(resp.ShedLoad-(5-resp.Capacity)) > 1e-9 {
		t.Fatalf("shed %v inconsistent with capacity %v", resp.ShedLoad, resp.Capacity)
	}
}

func TestSafePlanRespectsPerMachineCaps(t *testing.T) {
	e := testEngine(t, 8)
	const supply, margin = 22.0, 2.0
	resp, err := e.Plan(context.Background(), Request{
		Load: 20, Safe: true, AchievedSupplyC: supply, MarginC: margin,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := e.Snapshot().Profile()
	if len(resp.Plan.On) != p.Size() {
		t.Fatalf("safe mode consolidated: %d of %d machines on", len(resp.Plan.On), p.Size())
	}
	var capacity float64
	for i, l := range resp.Plan.Loads {
		cap := p.LoadCap(i, units.Celsius(supply+margin))
		capacity += cap
		if l > cap+1e-9 {
			t.Fatalf("machine %d loaded to %v past its Eq. 20 cap %v", i, l, cap)
		}
	}
	if resp.ShedLoad <= 0 {
		t.Fatalf("20 units on 8 machines should shed: %+v", resp)
	}
	if math.Abs(resp.Plan.TotalLoad()-capacity) > 1e-9 {
		t.Fatalf("safe plan carries %v, capacity is %v", resp.Plan.TotalLoad(), capacity)
	}
}

func TestRejectsBadRequests(t *testing.T) {
	e := testEngine(t, 6)
	if _, err := e.Plan(context.Background(), Request{Load: -1}); err == nil {
		t.Fatal("negative load accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Plan(ctx, Request{Load: 1}); err == nil {
		t.Fatal("canceled context accepted")
	}
	if _, err := e.Plan(context.Background(), Request{Load: 1, Avoid: []int{0, 1, 2, 3, 4, 5}}); err == nil {
		t.Fatal("empty survivor pool accepted")
	}
}

func TestMaxLoadAndConsolidate(t *testing.T) {
	e := testEngine(t, 8)
	sel, err := e.Consolidate(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Subset) < 4 {
		t.Fatalf("consolidation picked %d machines for 4 units", len(sel.Subset))
	}
	ml, err := e.MaxLoad(8*(52+34) + 150*21)
	if err != nil {
		t.Fatal(err)
	}
	if ml.Load <= 0 {
		t.Fatalf("generous budget yields max load %v", ml.Load)
	}
}

// planThroughInstalls is Plan for the install race checks: a cache miss
// that lands inside an install's own state build is shed with
// ErrOverloaded by design (InstallHierarchical), and every install drops
// the cache, so a request shed while installs are still running is
// retried. The engines these tests build have no in-flight cap and no
// deadlines, so once installsDone is set (after the last install has
// returned) nothing may shed: an ErrOverloaded from a Plan that started
// after that is returned at once, as is any other error.
func planThroughInstalls(ctx context.Context, e *Engine, req Request, installsDone *atomic.Bool) (*Response, error) {
	for {
		done := installsDone.Load()
		resp, err := e.Plan(ctx, req)
		if !errors.Is(err, ErrOverloaded) {
			return resp, err
		}
		if done {
			return nil, fmt.Errorf("shed after the last install returned: %w", err)
		}
		runtime.Gosched()
	}
}

// TestConcurrentPlanDuringInstall is the race check the serving layer is
// built around: many goroutines hammer Plan while the main goroutine
// keeps installing fresh snapshots with increasing epochs. Run with
// -race this verifies readers never observe a torn (snapshot, planner)
// pair; the epoch stamp proves each answer came from some installed
// snapshot. Every query must end in an answer: misses shed while installs
// are running are retried, and none may be shed after the last install
// (planThroughInstalls).
func TestConcurrentPlanDuringInstall(t *testing.T) {
	const (
		workers  = 8
		queries  = 60
		installs = 20
	)
	e := testEngine(t, 12)
	ctx := context.Background()

	var wg sync.WaitGroup
	var installsDone atomic.Bool
	errs := make(chan error, workers)
	maxEpoch := make(chan uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var top uint64
			for q := 0; q < queries; q++ {
				load := 1 + float64((w*queries+q)%40)/4
				req := Request{Load: load}
				switch q % 3 {
				case 1:
					req.Avoid = []int{w % 12}
				case 2:
					req.Safe = true
					req.AchievedSupplyC = 20
					req.MarginC = 2
				}
				resp, err := planThroughInstalls(ctx, e, req, &installsDone)
				if err != nil {
					errs <- err
					return
				}
				if resp.Epoch > top {
					top = resp.Epoch
				}
				if resp.Plan == nil || len(resp.Plan.On) == 0 {
					errs <- context.DeadlineExceeded // impossible marker
					return
				}
			}
			maxEpoch <- top
		}(w)
	}
	for i := 1; i <= installs; i++ {
		if err := e.Install(testSnapshot(t, 12, uint64(i))); err != nil {
			t.Fatalf("install %d: %v", i, err)
		}
	}
	installsDone.Store(true)
	wg.Wait()
	close(errs)
	close(maxEpoch)
	if err := <-errs; err != nil {
		t.Fatalf("concurrent plan: %v", err)
	}
	if e.Epoch() != installs {
		t.Fatalf("final epoch %d, want %d", e.Epoch(), installs)
	}
	for top := range maxEpoch {
		if top > installs {
			t.Fatalf("worker saw epoch %d beyond any installed snapshot", top)
		}
	}
}

func testPods(t *testing.T, n int, epoch uint64) *core.PodSnapshot {
	t.Helper()
	pods, err := core.NewPodSnapshot(testProfile(n), epoch, core.WithPodSize(n/4))
	if err != nil {
		t.Fatalf("pod snapshot: %v", err)
	}
	return pods
}

func TestCacheLRUAndStats(t *testing.T) {
	e := testEngine(t, 10)
	ctx := context.Background()
	const distinct = 600 // past cacheCap, one per quantization bucket
	for i := 0; i < distinct; i++ {
		if _, err := e.Plan(ctx, Request{Load: 0.5 + float64(i)*0.01}); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.CacheMisses != distinct {
		t.Fatalf("misses = %d, want %d", s.CacheMisses, distinct)
	}
	if s.CacheEvictions != distinct-uint64(s.CacheCapacity) {
		t.Fatalf("evictions = %d with capacity %d", s.CacheEvictions, s.CacheCapacity)
	}
	if s.CacheEntries != s.CacheCapacity {
		t.Fatalf("entries = %d, want full cache %d", s.CacheEntries, s.CacheCapacity)
	}
	// The most recent insert must still be resident; the very first load
	// must have been evicted (LRU order).
	resp, err := e.Plan(ctx, Request{Load: 0.5 + float64(distinct-1)*0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatal("most recent entry evicted")
	}
	resp, err = e.Plan(ctx, Request{Load: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("oldest entry survived past capacity")
	}
	if got := e.Stats(); got.CacheHits != 1 {
		t.Fatalf("hits = %d, want 1", got.CacheHits)
	}
	if got := e.Stats(); !got.QuantizedKeys || got.Machines != 10 || got.Pods != 0 {
		t.Fatalf("stats topology wrong: %+v", got)
	}
}

// TestLRUTouchPreventsEviction distinguishes LRU from the old FIFO: an
// entry re-read right before the cache overflows must survive, the
// untouched next-oldest must go.
func TestLRUTouchPreventsEviction(t *testing.T) {
	e := testEngine(t, 10)
	ctx := context.Background()
	load := func(i int) float64 { return 0.5 + float64(i)*0.01 }
	for i := 0; i < 512; i++ {
		if _, err := e.Plan(ctx, Request{Load: load(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if resp, err := e.Plan(ctx, Request{Load: load(0)}); err != nil || !resp.Cached {
		t.Fatalf("warm-up read of oldest entry: cached=%v err=%v", resp != nil && resp.Cached, err)
	}
	if _, err := e.Plan(ctx, Request{Load: load(512)}); err != nil {
		t.Fatal(err)
	}
	if resp, err := e.Plan(ctx, Request{Load: load(0)}); err != nil || !resp.Cached {
		t.Fatal("touched entry evicted: cache is not LRU")
	}
	if resp, err := e.Plan(ctx, Request{Load: load(1)}); err != nil || resp.Cached {
		t.Fatal("untouched next-oldest entry survived over the touched one")
	}
}

func TestQuantizedKeysCoalesceNearbyLoads(t *testing.T) {
	e := testEngine(t, 10) // bucket = 0.1 % of 10 machines = 0.01 units
	ctx := context.Background()
	first, err := e.Plan(ctx, Request{Load: 5})
	if err != nil {
		t.Fatal(err)
	}
	near, err := e.Plan(ctx, Request{Load: 5.001})
	if err != nil {
		t.Fatal(err)
	}
	if !near.Cached {
		t.Fatal("load within one bucket missed the cache")
	}
	if math.Abs(near.Plan.TotalLoad()-first.Plan.TotalLoad()) > 1e-12 {
		t.Fatal("coalesced response differs from the bucket's first plan")
	}
	far, err := e.Plan(ctx, Request{Load: 5.02})
	if err != nil {
		t.Fatal(err)
	}
	if far.Cached {
		t.Fatal("load two buckets away hit the cache")
	}
}

func TestExactCacheKeysOption(t *testing.T) {
	e, err := FromSnapshot(testSnapshot(t, 10, 0), WithExactCacheKeys())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := e.Plan(ctx, Request{Load: 5}); err != nil {
		t.Fatal(err)
	}
	resp, err := e.Plan(ctx, Request{Load: 5.001})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("exact keys served a neighbouring load's plan")
	}
	if math.Abs(resp.Plan.TotalLoad()-5.001) > 1e-9 {
		t.Fatalf("exact-key plan carries %v, want 5.001", resp.Plan.TotalLoad())
	}
	if e.Stats().QuantizedKeys {
		t.Fatal("stats claim quantized keys on an exact-key engine")
	}
}

// TestEngineServesInstalledTables pins the one-model-per-generation
// contract: an engine built on whole-room tables answers method #8, the
// degraded path, MaxLoad and Consolidate from those tables, an engine
// built on a pod tree answers all four from the tree, and every response
// and the stats report Hierarchical to match.
func TestEngineServesInstalledTables(t *testing.T) {
	const n = 64
	snap, pods := testSnapshot(t, n, 3), testPods(t, n, 3)
	flat, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := FromPodSnapshot(pods)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	avoid := []int{3, 17, 40}
	budget := float64(n)*(52+34)/2 + 150*15
	for _, tc := range []struct {
		name string
		e    *Engine
		hier bool
	}{{"whole-room", flat, false}, {"pod", hier, true}} {
		if got := tc.e.Stats().Hierarchical; got != tc.hier {
			t.Fatalf("%s: Stats().Hierarchical = %t", tc.name, got)
		}
		if (tc.e.Snapshot() != nil) == tc.hier || (tc.e.Pods() != nil) != tc.hier {
			t.Fatalf("%s: engine holds snap=%t pods=%t", tc.name, tc.e.Snapshot() != nil, tc.e.Pods() != nil)
		}
		plan, err := tc.e.Plan(ctx, Request{Load: 10})
		if err != nil {
			t.Fatal(err)
		}
		var want *core.Plan
		if tc.hier {
			want, err = pods.Plan(10)
		} else {
			want, err = snap.Plan(10)
		}
		if err != nil {
			t.Fatal(err)
		}
		if plan.Hierarchical != tc.hier || plan.Epoch != 3 {
			t.Fatalf("%s #8: Hierarchical=%t epoch=%d", tc.name, plan.Hierarchical, plan.Epoch)
		}
		samePlanBits(t, tc.name+" #8", plan.Plan, want)

		deg, err := tc.e.Plan(ctx, Request{Load: 10, Avoid: avoid})
		if err != nil {
			t.Fatal(err)
		}
		if !deg.Degraded || deg.Hierarchical != tc.hier {
			t.Fatalf("%s degraded: Degraded=%t Hierarchical=%t", tc.name, deg.Degraded, deg.Hierarchical)
		}
		if tc.hier {
			want, err = pods.PlanAvoiding(10, avoid)
		} else {
			want, err = snap.PlanAvoiding(10, avoid)
		}
		if err != nil {
			t.Fatal(err)
		}
		samePlanBits(t, tc.name+" degraded", deg.Plan, want)

		ml, err := tc.e.MaxLoad(budget)
		if err != nil {
			t.Fatal(err)
		}
		var wantML core.MaxLoadResult
		if tc.hier {
			wantML, err = pods.MaxLoad(budget)
		} else {
			wantML, err = snap.Tables().MaxLoad(budget)
		}
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(ml.Load) != math.Float64bits(wantML.Load) {
			t.Fatalf("%s MaxLoad = %v, want %v", tc.name, ml.Load, wantML.Load)
		}

		sel, err := tc.e.Consolidate(10, 1)
		if err != nil {
			t.Fatal(err)
		}
		var wantSel core.Selection
		if tc.hier {
			wantSel, err = pods.Consolidate(10, 1)
		} else {
			wantSel, err = snap.Tables().QueryExact(10, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(sel.Subset) != fmt.Sprint(wantSel.Subset) {
			t.Fatalf("%s Consolidate subset %v, want %v", tc.name, sel.Subset, wantSel.Subset)
		}
	}
	// The two models answer the same question; the pod tree's power gap
	// is bounded.
	p := flat.Planner().Profile()
	exact, _ := flat.Plan(ctx, Request{Load: 10})
	pod, _ := hier.Plan(ctx, Request{Load: 10})
	exactW, hierW := float64(p.PlanPower(exact.Plan)), float64(p.PlanPower(pod.Plan))
	if hierW < exactW-1e-6 || hierW > exactW*1.05 {
		t.Fatalf("hierarchical power %v vs exact %v outside bound", hierW, exactW)
	}
}

// samePlanBits asserts two plans are bit-identical.
func samePlanBits(t *testing.T, label string, got, want *core.Plan) {
	t.Helper()
	if fmt.Sprint(got.On) != fmt.Sprint(want.On) {
		t.Fatalf("%s: on set %v, want %v", label, got.On, want.On)
	}
	for i := range want.Loads {
		if math.Float64bits(got.Loads[i]) != math.Float64bits(want.Loads[i]) {
			t.Fatalf("%s: machine %d load %v, want %v", label, i, got.Loads[i], want.Loads[i])
		}
	}
	if math.Float64bits(float64(got.TAcC)) != math.Float64bits(float64(want.TAcC)) {
		t.Fatalf("%s: TAcC %v, want %v", label, got.TAcC, want.TAcC)
	}
}

func TestPodOnlyEngine(t *testing.T) {
	e, err := FromPodSnapshot(testPods(t, 64, 5))
	if err != nil {
		t.Fatal(err)
	}
	if e.Snapshot() != nil {
		t.Fatal("pod-only engine claims an exact snapshot")
	}
	if e.Epoch() != 5 {
		t.Fatalf("epoch = %d, want 5", e.Epoch())
	}
	ctx := context.Background()
	resp, err := e.Plan(ctx, Request{Load: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Hierarchical {
		t.Fatal("pod-only default plan not hierarchical")
	}
	// Non-#8 scenarios run off the pod planner.
	if _, err := e.Plan(ctx, Request{Load: 10, Method: baseline.EvenACNoCons}); err != nil {
		t.Fatalf("baseline scenario on pod-only engine: %v", err)
	}
	// Degraded and safe paths work without whole-room tables.
	if _, err := e.Plan(ctx, Request{Load: 3, Avoid: []int{2}}); err != nil {
		t.Fatalf("degraded plan: %v", err)
	}
	if _, err := e.Plan(ctx, Request{Load: 3, Safe: true, AchievedSupplyC: 20, MarginC: 2}); err != nil {
		t.Fatalf("safe plan: %v", err)
	}
	if ml, err := e.MaxLoad(64*(52+34) + 150*21); err != nil || ml.Load <= 0 {
		t.Fatalf("pod-only maxload: %v %v", ml, err)
	}
	if sel, err := e.Consolidate(4, 1); err != nil || len(sel.Subset) < 4 {
		t.Fatalf("pod-only consolidate: %v %v", sel, err)
	}
	if s := e.Stats(); !s.Hierarchical || s.Pods != 4 {
		t.Fatalf("pod-only stats: %+v", s)
	}
}

// TestInstallRefusesBothOrNeither: a generation holds exactly one model,
// so both install paths refuse whole-room tables and a pod tree together,
// and refuse neither, leaving the live generation serving.
func TestInstallRefusesBothOrNeither(t *testing.T) {
	e := testEngine(t, 10)
	if err := e.InstallHierarchical(testSnapshot(t, 10, 1), testPods(t, 10, 1)); err == nil {
		t.Fatal("both tables installed as one generation")
	}
	if err := e.InstallHierarchical(nil, nil); err == nil {
		t.Fatal("empty install accepted")
	}
	if _, err := e.PrepareInstall(testSnapshot(t, 10, 1), testPods(t, 10, 1)); err == nil {
		t.Fatal("both tables prepared as one generation")
	}
	if _, err := e.PrepareInstall(nil, nil); err == nil {
		t.Fatal("empty prepare accepted")
	}
	if e.Epoch() != 0 || e.Snapshot() == nil || e.Pods() != nil {
		t.Fatalf("refused installs moved the live generation: epoch %d", e.Epoch())
	}
	if err := e.InstallHierarchical(nil, testPods(t, 10, 4)); err != nil {
		t.Fatal(err)
	}
	if e.Epoch() != 4 || e.Pods() == nil || e.Snapshot() != nil {
		t.Fatalf("pod install not published alone: epoch %d", e.Epoch())
	}
	if err := e.Install(testSnapshot(t, 10, 5)); err != nil {
		t.Fatal(err)
	}
	if e.Epoch() != 5 || e.Pods() != nil || e.Stats().Hierarchical {
		t.Fatalf("whole-room install kept the pod tree: epoch %d", e.Epoch())
	}
}

// TestConcurrentPlanDuringHierarchicalInstall is the hierarchy analogue
// of the serving-layer race check: workers mix consolidating, baseline
// and degraded queries while the main goroutine keeps installing
// generations that alternate between whole-room tables (even epochs) and
// pod trees (odd epochs). Run with -race this verifies readers never
// observe a torn state: every answer is stamped with some installed
// epoch and was served by the model that epoch installed. Misses shed
// while installs are running are retried, and none may be shed after the
// last install.
func TestConcurrentPlanDuringHierarchicalInstall(t *testing.T) {
	const (
		workers  = 8
		queries  = 40
		installs = 10
		n        = 16
	)
	e := testEngine(t, n)
	ctx := context.Background()

	var wg sync.WaitGroup
	var installsDone atomic.Bool
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				req := Request{Load: 1 + float64((w*queries+q)%48)/4}
				switch q % 3 {
				case 1:
					req.Method = baseline.OptimalACNoCons
				case 2:
					req.Avoid = []int{w % n}
				}
				resp, err := planThroughInstalls(ctx, e, req, &installsDone)
				if err != nil {
					errs <- err
					return
				}
				if resp.Epoch > installs {
					errs <- fmt.Errorf("epoch %d beyond any install", resp.Epoch)
					return
				}
				if want := q%3 != 1 && resp.Epoch%2 == 1; resp.Hierarchical != want {
					errs <- fmt.Errorf("epoch %d query %d: Hierarchical=%t, want %t", resp.Epoch, q, resp.Hierarchical, want)
					return
				}
			}
		}(w)
	}
	for i := uint64(1); i <= installs; i++ {
		var err error
		if i%2 == 1 {
			err = e.InstallHierarchical(nil, testPods(t, n, i))
		} else {
			err = e.Install(testSnapshot(t, n, i))
		}
		if err != nil {
			t.Fatalf("install %d: %v", i, err)
		}
	}
	installsDone.Store(true)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatalf("concurrent hierarchical plan: %v", err)
	}
	if e.Epoch() != installs {
		t.Fatalf("final epoch %d, want %d", e.Epoch(), installs)
	}
}

// TestStatsPodDepth: a pod engine over a depth-3 planner tree must
// surface that depth in /v1/stats so operators can tell which tree shape
// is live.
func TestStatsPodDepth(t *testing.T) {
	const n = 64
	pods, err := core.NewPodSnapshot(testProfile(n), 0,
		core.WithPodCount(16), core.WithPodDepth(3))
	if err != nil {
		t.Fatal(err)
	}
	e, err := FromPodSnapshot(pods)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats(); got.PodDepth != pods.Depth() || got.PodDepth != 3 {
		t.Fatalf("Stats().PodDepth = %d, want %d", got.PodDepth, pods.Depth())
	}
}
