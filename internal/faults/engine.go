package faults

import "coolopt/internal/engine"

// Engine-layer injectors: where room.go breaks the physical plant and
// middleware.go breaks the transport, these break the plan-serving layer
// itself — slow snapshot installs and the failure-burst shapes the
// degraded planner must absorb.

// SlowInstall holds the engine's install gate open, simulating a
// minutes-long table build feeding a later Install or
// InstallHierarchical (whole-room tables or a pod tree): cache misses
// shed with engine.ErrOverloaded and /v1/readyz reports not ready until
// the returned release func is called. Release is idempotent.
func SlowInstall(e *engine.Engine) (release func()) {
	return e.BeginInstall()
}

// ConcentratedBurst returns f failed machine IDs packed contiguously
// starting at n/3 — the shape of a rack losing power, which lands every
// failure in one or two pods and forces deep survivor-restricted
// recomputation there.
func ConcentratedBurst(n, f int) []int {
	if f > n {
		f = n
	}
	out := make([]int, f)
	start := n / 3
	for i := range out {
		out[i] = (start + i) % n
	}
	return out
}

// SpreadBurst returns f failed machine IDs striped evenly across the
// room — the shape of a bad firmware rollout, which touches every pod a
// little and exercises the water-filling split over many perturbed
// aggregates.
func SpreadBurst(n, f int) []int {
	if f > n {
		f = n
	}
	out := make([]int, f)
	for i := range out {
		out[i] = i * n / f
	}
	return out
}
