package engine

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"coolopt/internal/core"
)

// driftOne builds a single-machine drift batch against the engine's live
// profile.
func driftOne(t *testing.T, e *Engine, id int, dGamma float64) []core.MachineDelta {
	t.Helper()
	st := e.state.Load()
	m := st.profile.Machines[id]
	m.Gamma += dGamma
	return []core.MachineDelta{{ID: id, Machine: m}}
}

func patchedEngine(t *testing.T, n int) *Engine {
	t.Helper()
	snap, err := core.NewSnapshot(testProfile(n), 0, core.WithPatchSupport())
	if err != nil {
		t.Fatal(err)
	}
	e, err := FromSnapshot(snap, WithExactCacheKeys())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPrepareCommitInstall(t *testing.T) {
	e := testEngine(t, 12)
	prep, err := e.PrepareInstall(testSnapshot(t, 12, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if prep.BaseEpoch() != 0 || prep.Epoch() != 1 || prep.Patched() {
		t.Fatalf("prepared base=%d epoch=%d patched=%t", prep.BaseEpoch(), prep.Epoch(), prep.Patched())
	}
	if e.Epoch() != 0 {
		t.Fatalf("prepare published early: epoch %d", e.Epoch())
	}
	if err := e.CommitInstall(prep); err != nil {
		t.Fatal(err)
	}
	if e.Epoch() != 1 {
		t.Fatalf("epoch = %d after commit, want 1", e.Epoch())
	}
	s := e.Stats()
	if s.Installs != 1 || s.PipelinedInstalls != 1 || s.RebuildInstalls != 1 || s.PatchInstalls != 0 {
		t.Fatalf("install stats %+v", s)
	}
}

func TestCommitInstallStale(t *testing.T) {
	e := testEngine(t, 12)
	a, err := e.PrepareInstall(testSnapshot(t, 12, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.PrepareInstall(testSnapshot(t, 12, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CommitInstall(a); err != nil {
		t.Fatal(err)
	}
	if err := e.CommitInstall(b); !errors.Is(err, ErrStaleInstall) {
		t.Fatalf("second commit err = %v, want ErrStaleInstall", err)
	}
	if e.Epoch() != 1 || e.Snapshot() != a.Snapshot() {
		t.Fatal("stale commit disturbed the live state")
	}
	if s := e.Stats(); s.StaleInstalls != 1 || s.Installs != 1 {
		t.Fatalf("install stats %+v", s)
	}
}

// TestInstallPipelineEpochRace is the regression for the stale-planner
// window: the pipelined path re-validates internally, so callers never
// retry by hand. A
// preparation that lost the race must be refused at commit, and
// InstallPatch must absorb the race by re-preparing.
func TestInstallPipelineEpochRace(t *testing.T) {
	e := patchedEngine(t, 12)
	prep, err := e.PreparePatch(driftOne(t, e, 3, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	// Another installer wins the race before our commit.
	if _, err := e.InstallPatch(driftOne(t, e, 5, -0.1)); err != nil {
		t.Fatal(err)
	}
	if err := e.CommitInstall(prep); !errors.Is(err, ErrStaleInstall) {
		t.Fatalf("commit after lost race err = %v, want ErrStaleInstall", err)
	}
	// The internal loop re-prepares against the new generation and lands.
	epoch, err := e.InstallPatch(driftOne(t, e, 3, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 || e.Epoch() != 2 {
		t.Fatalf("epoch = %d (installed %d), want 2", e.Epoch(), epoch)
	}
}

// TestPreparePatchMatchesRebuildServing proves the pipeline serves the
// same answers a from-scratch install over the drifted profile would.
func TestPreparePatchMatchesRebuildServing(t *testing.T) {
	const n = 24
	e := patchedEngine(t, n)
	batch := driftOne(t, e, 7, 0.35)
	prep, err := e.PreparePatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !prep.Patched() {
		t.Fatal("retained-crossings engine did not take the patch path")
	}
	if err := e.CommitInstall(prep); err != nil {
		t.Fatal(err)
	}

	p2 := *e.state.Load().profile
	ref, err := core.NewSnapshot(&p2, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FromSnapshot(ref, WithExactCacheKeys())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, load := range []float64{2.5, 8, 14} {
		got, err := e.Plan(ctx, Request{Load: load})
		if err != nil {
			t.Fatalf("load %v: %v", load, err)
		}
		exp, err := want.Plan(ctx, Request{Load: load})
		if err != nil {
			t.Fatalf("load %v rebuild: %v", load, err)
		}
		if got.Epoch != 1 {
			t.Fatalf("load %v: epoch %d, want 1", load, got.Epoch)
		}
		for i := range got.Plan.Loads {
			if math.Float64bits(got.Plan.Loads[i]) != math.Float64bits(exp.Plan.Loads[i]) {
				t.Fatalf("load %v machine %d: %v vs %v", load, i, got.Plan.Loads[i], exp.Plan.Loads[i])
			}
		}
	}
	if s := e.Stats(); s.PatchInstalls != 1 || s.RebuildInstalls != 0 {
		t.Fatalf("install stats %+v", s)
	}
}

// TestPreparePatchHierarchical covers whole-room and pod engines: each
// patch advances only the model its engine holds, and the generation
// still holds exactly that one.
func TestPreparePatchHierarchical(t *testing.T) {
	const n = 16
	podEngine, err := FromPodSnapshot(testPods(t, n, 0))
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*Engine{"whole-room": patchedEngine(t, n), "pod": podEngine} {
		epoch, err := e.InstallPatch(driftOne(t, e, 2, 0.15))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if epoch != 1 || e.Epoch() != 1 {
			t.Fatalf("%s: epoch %d, want 1", name, e.Epoch())
		}
		if name == "pod" && (e.Pods() == nil || e.Pods().Epoch() != 1 || e.Snapshot() != nil) {
			t.Fatal("pod: tree not advanced alone")
		}
		if name == "whole-room" && (e.Snapshot() == nil || e.Snapshot().Epoch() != 1 || e.Pods() != nil) {
			t.Fatal("whole-room: tables not advanced alone")
		}
		if s := e.Stats(); s.PatchInstalls != 1 || s.RebuildInstalls != 0 {
			t.Fatalf("%s: install stats %+v", name, s)
		}
		if _, err := e.Plan(context.Background(), Request{Load: 6}); err != nil {
			t.Fatalf("%s: serving after patch: %v", name, err)
		}
	}
}

func TestPreparePatchRejectsBadBatch(t *testing.T) {
	e := patchedEngine(t, 8)
	bad := driftOne(t, e, 0, 0)
	bad[0].Machine.Beta = -1
	if _, err := e.PreparePatch(bad); !errors.Is(err, core.ErrBadDelta) {
		t.Fatalf("err = %v, want core.ErrBadDelta", err)
	}
	if _, err := e.InstallPatch(bad); !errors.Is(err, core.ErrBadDelta) {
		t.Fatalf("InstallPatch err = %v, want core.ErrBadDelta", err)
	}
	if e.Epoch() != 0 {
		t.Fatal("rejected batch moved the epoch")
	}
}

// TestCommitKeepsReady pins the no-flap contract: the pipelined commit
// never takes the admission gate, so readiness holds through the whole
// prepare/commit cycle — unlike the in-line install path, whose gate is
// exactly what sheds fresh computes during long builds.
func TestCommitKeepsReady(t *testing.T) {
	e := patchedEngine(t, 12)
	if ok, why := e.Ready(); !ok {
		t.Fatalf("engine not ready at boot: %s", why)
	}
	prep, err := e.PreparePatch(driftOne(t, e, 1, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := e.Ready(); !ok {
		t.Fatalf("prepare flapped readiness: %s", why)
	}
	if err := e.CommitInstall(prep); err != nil {
		t.Fatal(err)
	}
	if ok, why := e.Ready(); !ok {
		t.Fatalf("commit flapped readiness: %s", why)
	}
	if s := e.Stats(); s.Installing {
		t.Fatal("pipelined commit reported as installing")
	}
}

// TestCommitDropsCache: a committed generation must invalidate the plan
// cache so no served plan mixes epochs.
func TestCommitDropsCache(t *testing.T) {
	e := patchedEngine(t, 12)
	ctx := context.Background()
	if _, err := e.Plan(ctx, Request{Load: 5}); err != nil {
		t.Fatal(err)
	}
	again, err := e.Plan(ctx, Request{Load: 5})
	if err != nil || !again.Cached {
		t.Fatalf("expected warm cache: %v %v", again, err)
	}
	if _, err := e.InstallPatch(driftOne(t, e, 4, 0.25)); err != nil {
		t.Fatal(err)
	}
	fresh, err := e.Plan(ctx, Request{Load: 5})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached || fresh.Epoch != 1 {
		t.Fatalf("post-commit plan served stale: cached=%t epoch=%d", fresh.Cached, fresh.Epoch)
	}
}

// TestConcurrentInstallPatch races two installers; the internal
// re-validation loop must land both without surfacing ErrStaleInstall,
// and the final epoch must account for every committed generation.
func TestConcurrentInstallPatch(t *testing.T) {
	const rounds = 8
	e := patchedEngine(t, 12)
	var wg sync.WaitGroup
	errs := make(chan error, 2*rounds)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := e.InstallPatch(driftOne(t, e, id, 0.01)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := e.Stats()
	if e.Epoch() != 2*rounds || s.PipelinedInstalls != 2*rounds {
		t.Fatalf("epoch %d, stats %+v, want %d commits", e.Epoch(), s, 2*rounds)
	}
}

// BenchmarkInstallPatch times InstallPatch end to end on a 65 536-machine
// pod engine in 128 pods of 512 (cold-large's size, idle temperatures
// jittered) with 16 machines drifted in one pod, the pod cycling over
// all 128: the pod patch, the scenario planner over the new generation,
// and the commit.
func BenchmarkInstallPatch(b *testing.B) {
	const n, pods, k = 65536, 128, 16
	p := testProfile(n)
	for i := range p.Machines {
		// Jitter the rack-height gradient so idle temperatures are not
		// already in ID order.
		p.Machines[i].Gamma += 2 * math.Sin(float64(i)*2.399963)
	}
	ps, err := core.NewPodSnapshot(p, 0, core.WithPodCount(pods))
	if err != nil {
		b.Fatal(err)
	}
	e, err := FromPodSnapshot(ps)
	if err != nil {
		b.Fatal(err)
	}
	batches := make([][]core.MachineDelta, pods)
	for j := range batches {
		for m := 0; m < k; m++ {
			id := j*(n/pods) + m*(n/pods/k)
			mp := p.Machines[id]
			mp.Gamma += 0.01 * float64(1+j%7)
			batches[j] = append(batches[j], core.MachineDelta{ID: id, Machine: mp})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.InstallPatch(batches[i%pods]); err != nil {
			b.Fatal(err)
		}
	}
}
