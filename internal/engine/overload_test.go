package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"coolopt/internal/core"
)

// expireCtx is a hand-rolled context whose deadline "fires" when the
// test says so — request-counted breaker tests need deadline-exceeded
// computes without touching the wall clock.
type expireCtx struct {
	context.Context
	done    chan struct{}
	mu      sync.Mutex
	expired bool
}

func newExpireCtx() *expireCtx {
	return &expireCtx{Context: context.Background(), done: make(chan struct{})}
}

func (c *expireCtx) Done() <-chan struct{} { return c.done }

func (c *expireCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.expired {
		return context.DeadlineExceeded
	}
	return nil
}

func (c *expireCtx) expire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.expired {
		c.expired = true
		close(c.done)
	}
}

// TestDegradedHierarchicalRouting: with hierarchy active the avoid path
// must answer through the pod planner (Degraded && Hierarchical), keep
// the avoided machines off, and never fall back to the flat pool sweep.
func TestDegradedHierarchicalRouting(t *testing.T) {
	const n = 64
	e, err := FromPodSnapshot(testPods(t, n, 0))
	if err != nil {
		t.Fatal(err)
	}
	avoid := []int{3, 17, 18, 40}
	resp, err := e.Plan(context.Background(), Request{Load: 20, Avoid: avoid})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || !resp.Hierarchical {
		t.Fatalf("Degraded=%t Hierarchical=%t, want both", resp.Degraded, resp.Hierarchical)
	}
	blocked := map[int]bool{3: true, 17: true, 18: true, 40: true}
	for _, i := range resp.Plan.On {
		if blocked[i] {
			t.Fatalf("avoided machine %d is on", i)
		}
	}
	// A whole-room engine of the same room keeps the flat degraded sweep.
	resp, err = testEngine(t, n).Plan(context.Background(), Request{Load: 20, Avoid: avoid})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.Hierarchical {
		t.Fatalf("whole-room engine: Degraded=%t Hierarchical=%t, want flat", resp.Degraded, resp.Hierarchical)
	}
}

// TestDegradedHierarchicalShedding: demand beyond the surviving pool
// sheds to the survivors' Eq. 20 capacity through the pod path.
func TestDegradedHierarchicalShedding(t *testing.T) {
	const n = 32
	e, err := FromPodSnapshot(testPods(t, n, 0))
	if err != nil {
		t.Fatal(err)
	}
	avoid := make([]int, 8)
	for i := range avoid {
		avoid[i] = i * 4
	}
	resp, err := e.Plan(context.Background(), Request{Load: float64(n) - 2, Avoid: avoid, MarginC: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || !resp.Hierarchical {
		t.Fatalf("Degraded=%t Hierarchical=%t", resp.Degraded, resp.Hierarchical)
	}
	if resp.ShedLoad <= 0 {
		t.Fatalf("ShedLoad = %v, want > 0 with %d survivors for load %v", resp.ShedLoad, n-len(avoid), float64(n)-2)
	}
	if resp.Capacity <= 0 || resp.Capacity > float64(n-len(avoid)) {
		t.Fatalf("Capacity = %v outside (0, %d]", resp.Capacity, n-len(avoid))
	}
	got := resp.Plan.TotalLoad()
	if diff := got - resp.Capacity; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("plan carries %v, want the shed capacity %v", got, resp.Capacity)
	}
}

// TestBadAvoidRejected: out-of-range avoid IDs are a typed client error,
// not a silent drop.
func TestBadAvoidRejected(t *testing.T) {
	e := testEngine(t, 16)
	for _, avoid := range [][]int{{-1}, {16}, {3, 99}} {
		_, err := e.Plan(context.Background(), Request{Load: 4, Avoid: avoid})
		if !errors.Is(err, ErrBadAvoid) {
			t.Fatalf("avoid %v: err = %v, want ErrBadAvoid", avoid, err)
		}
	}
	// In-range duplicates still fine.
	if _, err := e.Plan(context.Background(), Request{Load: 4, Avoid: []int{5, 5, 2}}); err != nil {
		t.Fatalf("valid avoid rejected: %v", err)
	}
}

// TestMaxInFlightSheds: with a bound of 1, a second concurrent cache
// miss is shed with ErrOverloaded while the first computes; cache hits
// keep serving.
func TestMaxInFlightSheds(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var gate atomic.Bool
	hook := func(context.Context) {
		if gate.Load() {
			entered <- struct{}{}
			<-release
		}
	}
	e, err := FromSnapshot(testSnapshot(t, 16, 0), WithMaxInFlight(1), WithComputeHook(hook))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Prime one cache entry while the gate is open.
	if _, err := e.Plan(ctx, Request{Load: 2}); err != nil {
		t.Fatal(err)
	}
	gate.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := e.Plan(ctx, Request{Load: 5}); err != nil {
			t.Errorf("blocked compute: %v", err)
		}
	}()
	<-entered // the first miss is inside compute
	if _, err := e.Plan(ctx, Request{Load: 9}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second miss: err = %v, want ErrOverloaded", err)
	}
	resp, err := e.Plan(ctx, Request{Load: 2})
	if err != nil || !resp.Cached {
		t.Fatalf("cache hit during overload: resp=%+v err=%v", resp, err)
	}
	s := e.Stats()
	if s.InFlight != 1 || s.MaxInFlight != 1 || s.ShedOverload == 0 {
		t.Fatalf("stats during overload: %+v", s)
	}
	gate.Store(false)
	close(release)
	wg.Wait()
	if _, err := e.Plan(ctx, Request{Load: 9}); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// TestInstallGateSheds: between BeginInstall and its done func, cache
// misses shed with ErrOverloaded, hits serve, and Ready reports the
// install; done restores service.
func TestInstallGateSheds(t *testing.T) {
	e := testEngine(t, 16)
	ctx := context.Background()
	if _, err := e.Plan(ctx, Request{Load: 3}); err != nil {
		t.Fatal(err)
	}
	if ready, _ := e.Ready(); !ready {
		t.Fatal("not ready before install")
	}
	done := e.BeginInstall()
	if ready, reason := e.Ready(); ready || reason == "" {
		t.Fatalf("Ready() = %t %q during install", ready, reason)
	}
	if !e.Stats().Installing {
		t.Fatal("Stats.Installing false during install")
	}
	if _, err := e.Plan(ctx, Request{Load: 7}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("miss during install: err = %v, want ErrOverloaded", err)
	}
	resp, err := e.Plan(ctx, Request{Load: 3})
	if err != nil || !resp.Cached {
		t.Fatalf("hit during install: resp=%+v err=%v", resp, err)
	}
	done()
	done() // idempotent
	if ready, _ := e.Ready(); !ready {
		t.Fatal("not ready after done()")
	}
	if _, err := e.Plan(ctx, Request{Load: 7}); err != nil {
		t.Fatalf("after done: %v", err)
	}
}

// TestBreakerTripShedsAndRecovers drives the full request-counted
// breaker cycle: three deadline-exceeded computes trip it open, the
// open window sheds breakerOpenFor misses, the next miss is the
// half-open probe, and a successful probe closes it again.
func TestBreakerTripShedsAndRecovers(t *testing.T) {
	entered := make(chan struct{}, 1)
	var block atomic.Bool
	hook := func(ctx context.Context) {
		if block.Load() {
			entered <- struct{}{}
			<-ctx.Done()
		}
	}
	e, err := FromSnapshot(testSnapshot(t, 16, 0), WithComputeHook(hook))
	if err != nil {
		t.Fatal(err)
	}
	block.Store(true)
	for i := 0; i < breakerTripAfter; i++ {
		ctx := newExpireCtx()
		go func() {
			<-entered
			ctx.expire()
		}()
		if _, err := e.Plan(ctx, Request{Load: 1 + float64(i)}); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("blocked compute %d: err = %v, want DeadlineExceeded", i, err)
		}
	}
	block.Store(false)
	if ready, reason := e.Ready(); ready || reason != "breaker open" {
		t.Fatalf("Ready() = %t %q after trip", ready, reason)
	}
	if s := e.Stats(); s.Breaker != "open" || s.Ready {
		t.Fatalf("stats after trip: breaker=%q ready=%t", s.Breaker, s.Ready)
	}
	// The open window sheds exactly breakerOpenFor misses.
	for i := 0; i < breakerOpenFor; i++ {
		_, err := e.Plan(context.Background(), Request{Load: 4 + float64(i)*0.5})
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("open shed %d: err = %v, want ErrOverloaded", i, err)
		}
	}
	if ready, reason := e.Ready(); ready || reason != "breaker half-open" {
		t.Fatalf("Ready() = %t %q after the open window", ready, reason)
	}
	// The next miss is the probe; it computes and closes the breaker.
	resp, err := e.Plan(context.Background(), Request{Load: 3.5})
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if resp.Plan == nil {
		t.Fatal("probe returned no plan")
	}
	if ready, _ := e.Ready(); !ready {
		t.Fatal("breaker did not close after a successful probe")
	}
	if s := e.Stats(); s.Breaker != "closed" || !s.Ready {
		t.Fatalf("stats after recovery: breaker=%q ready=%t", s.Breaker, s.Ready)
	}
}

// TestBreakerReopensOnFailedProbe: a probe that also blows its deadline
// re-opens the breaker for a fresh shed window.
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	entered := make(chan struct{}, 1)
	var block atomic.Bool
	hook := func(ctx context.Context) {
		if block.Load() {
			entered <- struct{}{}
			<-ctx.Done()
		}
	}
	e, err := FromSnapshot(testSnapshot(t, 16, 0), WithComputeHook(hook))
	if err != nil {
		t.Fatal(err)
	}
	deadline := func(load float64) error {
		ctx := newExpireCtx()
		go func() {
			<-entered
			ctx.expire()
		}()
		_, err := e.Plan(ctx, Request{Load: load})
		return err
	}
	block.Store(true)
	for i := 0; i < breakerTripAfter; i++ {
		if err := deadline(1 + float64(i)); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("trip %d: %v", i, err)
		}
	}
	for i := 0; i < breakerOpenFor; i++ {
		if _, err := e.Plan(context.Background(), Request{Load: 4 + float64(i)*0.5}); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("open shed %d: %v", i, err)
		}
	}
	// Half-open: the probe fails its deadline too → open again.
	if err := deadline(12.5); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("failed probe: %v", err)
	}
	if ready, reason := e.Ready(); ready || reason != "breaker open" {
		t.Fatalf("Ready() = %t %q after failed probe", ready, reason)
	}
	block.Store(false)
	// Full shed window again before the next probe may close it.
	for i := 0; i < breakerOpenFor; i++ {
		if _, err := e.Plan(context.Background(), Request{Load: 5 + float64(i)*0.55}); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("reopened shed %d: %v", i, err)
		}
	}
	if _, err := e.Plan(context.Background(), Request{Load: 6.25}); err != nil {
		t.Fatalf("second probe: %v", err)
	}
	if ready, _ := e.Ready(); !ready {
		t.Fatal("breaker did not close after the second probe")
	}
}

// TestFailedInstallKeepsServing: a pod build that fails on an invalid
// profile never reaches an install, and the old state keeps serving.
func TestFailedInstallKeepsServing(t *testing.T) {
	e := testEngine(t, 16)
	ctx := context.Background()
	if _, err := e.Plan(ctx, Request{Load: 4}); err != nil {
		t.Fatal(err)
	}
	bad := testProfile(16)
	bad.Machines[5].Alpha = -bad.Machines[5].Alpha
	if _, err := core.NewPodSnapshot(bad, 1, core.WithPodSize(4)); err == nil {
		t.Fatal("pod build accepted a profile with a negative alpha")
	}
	// The failed build never reached Install; the engine still serves
	// epoch 0 and stays ready.
	resp, err := e.Plan(ctx, Request{Load: 4.5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != 0 {
		t.Fatalf("epoch = %d, want 0", resp.Epoch)
	}
	if ready, _ := e.Ready(); !ready {
		t.Fatal("engine not ready after an aborted external build")
	}
}
