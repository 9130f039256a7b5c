package engine

import (
	"errors"
	"fmt"

	"coolopt/internal/core"
)

// This file is the pipelined half of the install path. The classic
// Install/InstallHierarchical run the state build in line, which is why
// they gate admission (BeginInstall) for their whole duration — at
// n = 4096 that is seconds of shedding. The pipeline splits the work:
//
//	PrepareInstall / PreparePatch   build the full serving state off the
//	                                hot path (planner, epoch, tables) —
//	                                readers keep serving the old state;
//	                                the planner sorts nothing until a
//	                                bottom-up plan asks for its cool
//	                                order, and a pod patch re-derives
//	                                only the leaves the batch touches;
//	CommitInstall                   an O(1) epoch-checked pointer swap
//	                                plus cache drop, with no admission
//	                                gate and no readiness flap.
//
// Every prepared state remembers the live epoch it was derived from and
// the commit refuses (ErrStaleInstall) if another install published in
// between, so two concurrent re-profilers can never silently clobber each
// other's generation. InstallPatch wraps the prepare/commit pair in an
// internal re-validation loop, so callers never retry by hand (see
// TestInstallPipelineEpochRace).

// ErrStaleInstall reports a prepared install refused at commit because
// the engine's live epoch moved past the one the preparation was based
// on. Re-prepare against the new state and commit again (InstallPatch
// does this automatically). Wrap-compare with errors.Is.
var ErrStaleInstall = errors.New("engine: prepared install is stale")

// installRetries bounds InstallPatch's internal re-prepare loop. Losing
// the epoch race this many times in a row means another installer is
// livelocking us; surface it instead of spinning.
const installRetries = 4

// PreparedInstall is a fully built serving state waiting for its O(1)
// commit. It pins the snapshots and the scenario planner, so holding one
// is as heavy as holding the snapshots themselves.
type PreparedInstall struct {
	st      *state
	base    uint64
	patched bool
}

// Epoch returns the generation the commit will publish.
func (p *PreparedInstall) Epoch() uint64 { return p.st.epoch }

// BaseEpoch returns the live generation the preparation was derived
// from; CommitInstall refuses if the engine has moved past it.
func (p *PreparedInstall) BaseEpoch() uint64 { return p.base }

// Snapshot returns the prepared whole-room tables, or nil on a pod
// engine.
func (p *PreparedInstall) Snapshot() *core.Snapshot { return p.st.snap }

// Pods returns the prepared pod tree, or nil on a whole-room engine.
func (p *PreparedInstall) Pods() *core.PodSnapshot { return p.st.pods }

// Patched reports whether the prepared tables came from an incremental
// Patch rather than a from-scratch build (stats accounting).
func (p *PreparedInstall) Patched() bool { return p.patched }

// PrepareInstall builds the serving state for externally constructed
// tables (exactly one of snap and pods) without touching the live state
// or the admission gate — call it from a worker while the engine keeps
// serving. The commit will require the engine to still be on the epoch
// it is on now.
func (e *Engine) PrepareInstall(snap *core.Snapshot, pods *core.PodSnapshot) (*PreparedInstall, error) {
	base := e.state.Load().epoch
	st, err := newState(snap, pods)
	if err != nil {
		return nil, err
	}
	return &PreparedInstall{st: st, base: base}, nil
}

// PreparePatch builds the next generation by incrementally patching the
// live tables with a drift batch: whole-room tables splice their retained
// crossing list when the live snapshot carries one (WithPatchSupport —
// the patched result always does, so the path is self-sustaining), and a
// pod tree re-derives only the leaves holding a drifted machine (plus
// O(n) copies of the room's pairs and profile). Invalid batches are
// refused with core.ErrBadDelta. The live state keeps serving untouched
// throughout.
//
// Power-model drift (core.PowerDrift) forces a from-scratch rebuild,
// still bit-identical to a fresh build: replacement W1/W2 move every
// particle, so no retained crossing survives. So does a whole-room
// snapshot that retained no crossings.
func (e *Engine) PreparePatch(drifted []core.MachineDelta) (*PreparedInstall, error) {
	cur := e.state.Load()
	var (
		snap    *core.Snapshot
		pods    *core.PodSnapshot
		err     error
		patched = !core.PowerDrift(drifted)
	)
	if cur.pods != nil {
		pods, err = cur.pods.Patch(drifted)
	} else {
		patched = patched && cur.snap.PatchSupported()
		snap, err = cur.snap.Patch(drifted, core.WithPatchSupport())
	}
	if err != nil {
		return nil, err
	}
	st, err := newState(snap, pods)
	if err != nil {
		return nil, err
	}
	return &PreparedInstall{
		st:      st,
		base:    cur.epoch,
		patched: patched,
	}, nil
}

// CommitInstall publishes a prepared state: an epoch-checked pointer swap
// plus plan-cache drop under the engine mutex, nothing else. It returns
// ErrStaleInstall (and publishes nothing) when another install moved the
// live epoch past the preparation's base. No admission gate is taken —
// the commit has no build window to shed around, so readiness never
// flaps.
func (e *Engine) CommitInstall(p *PreparedInstall) error {
	return e.publishIfEpoch(p.st, p.base, p.patched)
}

// InstallPatch applies a drift batch end to end: prepare off the live
// state, commit, and on an epoch race re-prepare against the newly
// published state instead of surfacing ErrStaleInstall to the caller —
// drift deltas are absolute coefficients, so re-deriving against a newer
// generation is always valid. Returns the published epoch.
//
// Concurrent InstallPatch calls serialize on an internal mutex (racing
// the prepare would only burn duplicate table builds); the retry loop
// below absorbs interference from full Install/CommitInstall callers,
// which do not serialize with patches.
func (e *Engine) InstallPatch(drifted []core.MachineDelta) (uint64, error) {
	e.patchMu.Lock()
	defer e.patchMu.Unlock()
	var lastErr error
	for attempt := 0; attempt < installRetries; attempt++ {
		prep, err := e.PreparePatch(drifted)
		if err != nil {
			return 0, err
		}
		if err := e.CommitInstall(prep); err != nil {
			if errors.Is(err, ErrStaleInstall) {
				lastErr = err
				continue
			}
			return 0, err
		}
		return prep.Epoch(), nil
	}
	return 0, fmt.Errorf("engine: lost the install epoch race %d times: %w", installRetries, lastErr)
}
