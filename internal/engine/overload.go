package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// This file is the engine's overload protection: typed serving errors, a
// bounded in-flight computation limit, an install gate, and a breaker
// that stops feeding compute work to a path that keeps blowing its
// deadline. All of it counts requests, never the clock — the engine is a
// deterministic package, and request-counted state machines replay
// identically under test.
//
// Shedding order under pressure (DESIGN.md §8): cache hits and coalesced
// waits are always served — they cost nothing to answer — and only cache
// misses that would start a fresh computation are shed with
// ErrOverloaded. The serving layer translates that to HTTP 503 +
// Retry-After; clients with stale-tolerant needs keep getting cached
// plans for the hot loads throughout.

// Typed serving errors. Wrap-compare with errors.Is.
var (
	// ErrOverloaded reports the engine refused to start a new
	// computation: too many in flight, a snapshot install in progress, or
	// the breaker open after repeated deadline failures. The request was
	// not attempted; retrying after a backoff is safe.
	ErrOverloaded = errors.New("engine: overloaded")
	// ErrBadAvoid reports an avoid list naming a machine outside the
	// room — the client's inventory is stale.
	ErrBadAvoid = errors.New("engine: avoid list names a machine outside the room")
)

// Breaker states. The machine is request-counted: it trips after
// breakerTripAfter consecutive compute deadline failures, sheds the next
// breakerOpenFor cache misses, then lets exactly one probe through; the
// probe's outcome closes or re-opens it.
const (
	brClosed = iota
	brOpen
	brHalfOpen
)

const (
	// breakerTripAfter is how many consecutive deadline-exceeded computes
	// open the breaker.
	breakerTripAfter = 3
	// breakerOpenFor is how many cache misses are shed while open before
	// a half-open probe is allowed.
	breakerOpenFor = 16
)

func breakerName(state int) string {
	switch state {
	case brOpen:
		return "open"
	case brHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// WithMaxInFlight bounds concurrent plan computations: a cache miss
// arriving while k computations are already running is shed with
// ErrOverloaded instead of queued. Coalesced waiters on an existing
// flight do not count — they add no compute. Values ≤ 0 mean unbounded
// (the default).
func WithMaxInFlight(k int) Option {
	return func(e *Engine) { e.maxInFlight = k }
}

// WithComputeHook installs a function invoked at the start of every plan
// computation with the request context. Fault injection and tests use it
// to hold computations (until the context's deadline, for breaker
// rehearsals) or to count them; nil is the default no-op.
func WithComputeHook(hook func(ctx context.Context)) Option {
	return func(e *Engine) { e.computeHook = hook }
}

// BeginInstall marks a slow snapshot build as in progress: until the
// returned func is called, cache misses are shed with ErrOverloaded
// (hits and coalesced waits still serve) and Ready reports false. Use it
// around an out-of-engine NewSnapshot/NewPodSnapshot build feeding a
// later InstallHierarchical; the install methods take the gate
// themselves for their own (shorter) state build. The returned func is
// idempotent.
func (e *Engine) BeginInstall() (done func()) {
	e.installing.Add(1)
	var once sync.Once
	return func() { once.Do(func() { e.installing.Add(-1) }) }
}

// Ready reports whether the engine is serving at full capability: a
// snapshot is installed, no install is in flight, and the breaker is
// closed. The reason is empty when ready; /v1/readyz surfaces it.
func (e *Engine) Ready() (bool, string) {
	if e.installing.Load() > 0 {
		return false, "snapshot install in flight"
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.breakerState != brClosed {
		return false, "breaker " + breakerName(e.breakerState)
	}
	return true, ""
}

// admitLocked decides whether a cache miss may start a computation; the
// caller holds e.mu. A nil return admits the request (and, in the
// half-open state, claims the probe slot).
func (e *Engine) admitLocked() error {
	if e.installing.Load() > 0 {
		e.shedOverload++
		return fmt.Errorf("%w: snapshot install in flight", ErrOverloaded)
	}
	if e.maxInFlight > 0 && len(e.inflight) >= e.maxInFlight {
		e.shedOverload++
		return fmt.Errorf("%w: %d computations in flight", ErrOverloaded, len(e.inflight))
	}
	switch e.breakerState {
	case brOpen:
		e.breakerShedLeft--
		if e.breakerShedLeft <= 0 {
			e.breakerState = brHalfOpen
			e.breakerProbing = false
		}
		e.shedOverload++
		return fmt.Errorf("%w: breaker open after repeated compute deadline failures", ErrOverloaded)
	case brHalfOpen:
		if e.breakerProbing {
			e.shedOverload++
			return fmt.Errorf("%w: breaker half-open with a probe in flight", ErrOverloaded)
		}
		e.breakerProbing = true
	}
	return nil
}

// noteComputeLocked feeds one compute outcome to the breaker; the caller
// holds e.mu. Deadline failures count toward tripping (and re-open from
// a half-open probe); any completed compute — success or a prompt model
// error — closes the breaker; a client cancellation is neutral, it only
// releases the probe slot.
func (e *Engine) noteComputeLocked(err error) {
	switch {
	case err != nil && errors.Is(err, context.DeadlineExceeded):
		e.breakerFails++
		if e.breakerState == brHalfOpen || e.breakerFails >= breakerTripAfter {
			e.breakerState = brOpen
			e.breakerShedLeft = breakerOpenFor
			e.breakerProbing = false
		}
	case err != nil && errors.Is(err, context.Canceled):
		e.breakerProbing = false
	default:
		e.breakerFails = 0
		e.breakerState = brClosed
		e.breakerProbing = false
	}
}
