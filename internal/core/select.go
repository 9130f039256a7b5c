package core

import "math"

// clampBounds carries the room-level constants the clamped subset scorer
// needs: the Eq. 9 power coefficients, the Eq. 10 cooling model, and the
// supply-temperature actuation range. A pod fills it with its
// share-scaled cooling leverage so that per-pod scores sum to the room
// score (see podded.go); the union refinement uses the room's own.
type clampBounds struct {
	W1, W2     float64
	CoolFactor float64
	SetPointC  float64
	TAcMinC    float64
	TAcMaxC    float64
}

// bounds returns the profile's clamp bounds, cooling leverage scaled by
// share (1 for the whole room).
func (p *Profile) bounds(share float64) clampBounds {
	return clampBounds{W1: p.W1, W2: p.W2, CoolFactor: p.CoolFactor * share,
		SetPointC: p.SetPointC, TAcMinC: p.TAcMinC, TAcMaxC: p.TAcMaxC}
}

// power scores k machines carrying load at particle time t: tAc = W1·t
// is clamped into the actuation range (the paper's Eq. 23 scores the
// unclamped value, which would over-reward subsets that cannot actually
// raise the supply any further), and the score is cooling + W1·load +
// k·W2. ok is false when t needs colder air than is available; callers
// reject a negative t themselves.
func (b clampBounds) power(k int, t, load float64) (float64, bool) {
	tAc := b.W1 * t
	if tAc > b.TAcMaxC {
		tAc = b.TAcMaxC
	}
	if tAc < b.TAcMinC {
		return 0, false
	}
	cooling := b.CoolFactor * (b.SetPointC - tAc)
	if cooling < 0 {
		cooling = 0
	}
	return cooling + b.W1*load + float64(k)*b.W2, true
}

// floor is power's expression with cooling at its least value,
// max(0, CoolFactor·(T_SP − T_ac,max)). CoolFactor > 0 (validated; a
// pod's share is positive) and monotone rounding put every power(k', …)
// at or above floor(k) for k' ≥ k, as W2 ≥ 0; so once floor(k) reaches
// the best score less the scorers' 1e-9 margin, no k' ≥ k can win.
func (b clampBounds) floor(k int, load float64) float64 {
	coolMin := b.CoolFactor * (b.SetPointC - b.TAcMaxC)
	if coolMin < 0 {
		coolMin = 0
	}
	return coolMin + b.W1*load + float64(k)*b.W2
}

// clampedSelect sweeps subset sizes k ≥ ⌈load⌉ for the power-optimal
// front set under the supply-temperature clamp: each k's best particle
// time comes from bestTimeFor and is scored by power. It returns the
// winning k (0 when none is feasible), the event interval whose front
// set frontSet selects, and the score. The sweep stops at the first k
// whose floor reaches the best score, so a pod leaf, whose window above
// ⌈load⌉ is CoolFactor_j·(T_ac,max − T_ac,min)/W2 ≈ 66/p machines at
// perfbench's constants, looks up about one k.
func clampedSelect(pre *Preprocessed, load float64, b clampBounds) (bestK, bestE int, bestPower float64) {
	minK := int(math.Ceil(load - 1e-9))
	if minK < 1 {
		minK = 1
	}
	bestPower = math.Inf(1)
	for k := minK; k <= len(pre.reduced.Pairs); k++ {
		if b.floor(k, load) >= bestPower-1e-9 {
			break
		}
		t, e, ok := pre.bestTimeFor(k, load)
		if !ok {
			continue
		}
		if power, ok := b.power(k, t, load); ok && power < bestPower-1e-9 {
			bestPower, bestK, bestE = power, k, e
		}
	}
	return bestK, bestE, bestPower
}
