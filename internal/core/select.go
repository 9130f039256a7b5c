package core

import (
	"fmt"
	"math"

	"coolopt/internal/mathx"
)

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

// clampedSelect is the flat Snapshot's leaf planner: it sweeps subset
// sizes k ≥ ⌈load⌉ for the power-optimal front set under the
// supply-temperature clamp, each k's best particle time from bestTimeFor
// scored by power. It returns the winning k (0 when none is feasible),
// the event interval whose front set frontSet selects, and the score.
// The sweep stops at the first k whose floor reaches the best score.
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

// dinkelbach solves t_k = max over |S| = k of (Σ_S a − num)/(Σ_S b + den)
// over one leaf's candidate pairs by Dinkelbach's iteration (Management
// Science 13(7), 1967). num = L, den = 0 is Eq. 26's best particle time
// for load L; num = c_k/W1, den = ρ/W1 is maxload.go's budget crossing.
// At a fixed t the k front-most particles maximize
// Σ_S a − num − t·(Σ_S b + den), so each round selects them and moves t
// to their ratio. From the second round t rises strictly, until one scan
// shows the set is still the top k at its own ratio. The buffers are
// reused by every query on the same dinkelbach, one at a time.
type dinkelbach struct {
	pairs []Pair
	ps    []particle // the particles at the last t, permuted by selection
	on    []bool     // the last set, by index
}

// reset points d at a leaf's candidate pairs, growing the buffers only
// when they are too short.
func (d *dinkelbach) reset(pairs []Pair) {
	d.pairs = pairs
	if cap(d.ps) < len(pairs) {
		d.ps, d.on = make([]particle, len(pairs)), make([]bool, len(pairs))
	}
	d.ps, d.on = d.ps[:len(pairs)], d.on[:len(pairs)]
}

// fill sets ps to the particles at t, in index order.
func (d *dinkelbach) fill(t float64) {
	for i := range d.ps {
		d.ps[i] = particleAt(d.pairs, i, t)
	}
}

// selectTop sets on to the k front-most particles of ps.
func (d *dinkelbach) selectTop(k int) {
	selectFront(d.ps, k)
	clear(d.on)
	for _, p := range d.ps[:k] {
		d.on[p.id] = true
	}
}

// solve returns t_k iterating from t, with its set left in on. The sums
// run in ascending index order through the mask, so t does not depend on
// how the selection permuted the particles.
func (d *dinkelbach) solve(k int, t, num, den float64) float64 {
	d.fill(t)
	for round := 0; ; round++ {
		d.selectTop(k)
		var sumA, sumB float64
		for i, in := range d.on {
			if in {
				sumA += d.pairs[i].A
				sumB += d.pairs[i].B
			}
		}
		next := (sumA - num) / (sumB + den)
		if round > 0 && !(next > t) || d.frontAt(k, next) {
			return next
		}
		t = next
	}
}

// frontAt refills ps at t and reports whether on is still the top k
// there: its rearmost member leads the front-most outsider under
// particleLess's order.
func (d *dinkelbach) frontAt(k int, t float64) bool {
	if k == len(d.ps) {
		return true
	}
	var last, first particle
	haveIn, haveOut := false, false
	for i := range d.ps {
		p := particleAt(d.pairs, i, t)
		d.ps[i] = p
		if d.on[i] {
			if !haveIn || last.ahead(p) {
				last, haveIn = p, true
			}
		} else if !haveOut || p.ahead(first) {
			first, haveOut = p, true
		}
	}
	return last.ahead(first)
}

// allIDs returns 0..n−1.
func allIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// leafSelect is a pod leaf's planner: clampedSelect's k sweep, floor
// stop and score, with each k's best time t_k and front set from
// Dinkelbach's iteration instead of tables (a negative t_k is an
// infeasible k). It runs over every machine of the leaf, or over surv
// (pod-local survivors, ascending) when an avoid mask touches the leaf,
// and returns the winner's pod-local indices ascending and its t_k; the
// set is nil when no k is feasible. The first k starts from start, each
// next k from the previous t_k. Any start converges to the same answer;
// a start near t_k saves rounds.
func (d *dinkelbach) leafSelect(pairs []Pair, surv []int, load, start float64, b clampBounds) ([]int, float64) {
	cand := pairs
	if surv != nil {
		cand = make([]Pair, len(surv))
		for i, id := range surv {
			cand[i] = pairs[id]
		}
	}
	minK := int(math.Ceil(load - 1e-9))
	if minK < 1 {
		minK = 1
	}
	d.reset(cand)
	t, bestT := start, start
	var best []int
	bestPower := math.Inf(1)
	for k := minK; k <= len(cand); k++ {
		if b.floor(k, load) >= bestPower-1e-9 {
			break
		}
		if t = d.solve(k, t, load, 0); t < 0 {
			continue
		}
		if power, ok := b.power(k, t, load); ok && power < bestPower-1e-9 {
			bestPower, best, bestT = power, unionFromMask(d.on, k), t
		}
	}
	if surv != nil {
		for i, c := range best {
			best[i] = surv[c]
		}
	}
	return best, bestT
}

// leafMaxLoad answers Preprocessed.MaxLoad for a pod leaf without tables.
// Each k's budget crossing is t_k = max over |S| = k of
// (Σ_S a − c_k/W1)/(Σ_S b + ρ/W1), c_k as in maxLoadBoundary, by
// Dinkelbach's iteration; where t_k < 0 the load is the top-k sum at
// t = 0, as there. Loads are capped at k; the largest wins, ties to the
// smaller k. Past t_max = max_i a_i/b_i every coordinate is negative, so
// the crossing lies before it, and as the budget line rises in t no k
// serves more than min(k, (c_k + ρ·t_max)/W1). That bound peaks where
// its terms meet: k runs outward from there, each direction stopping
// once the bound falls below the best load found.
func leafMaxLoad(r Reduced, budgetW float64) (MaxLoadResult, error) {
	pairs := r.Pairs
	var sumA, sumB, tMax float64
	for _, p := range pairs {
		sumA += p.A
		sumB += p.B
		tMax = math.Max(tMax, p.A/p.B)
	}
	c0 := budgetW - r.CoolFactor*r.SetPointC // c_k + k·W2
	var d dinkelbach
	d.reset(pairs)
	best, bestK := MaxLoadResult{Load: math.Inf(-1)}, 0
	t := (sumA - c0/r.W1) / (sumB + r.Rho/r.W1)
	eval := func(k int) {
		bl := budgetLine{c: c0 - float64(k)*r.W2, rho: r.Rho, w1: r.W1}
		t = d.solve(k, t, bl.c/r.W1, r.Rho/r.W1)
		load, at := bl.loadAt(t), t
		if t < 0 {
			if bl.loadAt(0) < 0 {
				return // below the k-machine floor
			}
			d.fill(0)
			d.selectTop(k)
			load, at = 0, 0
			for i, in := range d.on {
				if in {
					load += pairs[i].A
				}
			}
		}
		load = math.Min(load, float64(k))
		if load > best.Load || mathx.Same(load, best.Load) && k < bestK {
			best, bestK = MaxLoadResult{Load: load, Subset: unionFromMask(d.on, k), T: at}, k
		}
	}
	// beaten keeps a bound within rounding of the best load in play.
	beaten := func(k int) bool {
		bound := math.Min(float64(k), (c0-float64(k)*r.W2+r.Rho*tMax)/r.W1)
		return best.Load >= 0 && bound < best.Load-1e-9*math.Max(1, best.Load)
	}
	peak := len(pairs)
	if x := (c0 + r.Rho*tMax) / (r.W1 + r.W2); !(x >= 1) {
		peak = 1
	} else if x < float64(peak) {
		peak = int(x)
	}
	eval(peak)
	tPeak := t
	for k := peak - 1; k >= 1 && !beaten(k); k-- {
		eval(k)
	}
	t = tPeak
	for k := peak + 1; k <= len(pairs) && !beaten(k); k++ {
		eval(k)
	}
	if math.IsInf(best.Load, -1) {
		return MaxLoadResult{}, fmt.Errorf("%w: budget %v W serves no machine count", ErrInfeasible, budgetW)
	}
	if best.Load < 0 {
		best.Load = 0
	}
	return best, nil
}
