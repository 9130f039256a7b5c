package core

import "math"

// clampBounds carries the room-level constants the clamped subset scorer
// needs: the Eq. 9 power coefficients, the Eq. 10 cooling model, and the
// supply-temperature actuation range. A Snapshot fills it from its
// Profile; a pod fills it with its share-scaled cooling leverage so that
// per-pod scores sum to the room score (see podded.go).
type clampBounds struct {
	W1, W2     float64
	CoolFactor float64
	SetPointC  float64
	TAcMinC    float64
	TAcMaxC    float64
}

// clampedSelect sweeps subset sizes k ≥ ⌈load⌉ and returns the
// power-optimal front set under the supply-temperature clamp: each k's
// best particle time comes from bestTimeFor, its supply temperature
// tAc = W1·t is clamped into the actuation range (the paper's Eq. 23
// scores the unclamped value, which would over-reward subsets that cannot
// actually raise the supply any further), and the candidate is scored as
// cooling + W1·load + k·W2. The front set is selected once, for the
// winning k only — an O(n) selection per k would make the sweep O(n²)
// per query.
func clampedSelect(pre *Preprocessed, load float64, b clampBounds) ([]int, bool) {
	n := len(pre.reduced.Pairs)
	minK := int(math.Ceil(load - 1e-9))
	if minK < 1 {
		minK = 1
	}
	bestPower := math.Inf(1)
	bestK, bestE := 0, 0
	for k := minK; k <= n; k++ {
		t, e, ok := pre.bestTimeFor(k, load)
		if !ok {
			continue
		}
		tAc := b.W1 * t
		if tAc > b.TAcMaxC {
			tAc = b.TAcMaxC
		}
		if tAc < b.TAcMinC {
			continue // even the best k-subset needs colder air than available
		}
		cooling := b.CoolFactor * (b.SetPointC - tAc)
		if cooling < 0 {
			cooling = 0
		}
		power := cooling + b.W1*load + float64(k)*b.W2
		if power < bestPower-1e-9 {
			bestPower, bestK, bestE = power, k, e
		}
	}
	if bestK == 0 {
		return nil, false
	}
	return pre.frontSet(bestE, bestK), true
}
