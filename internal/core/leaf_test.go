package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"coolopt/internal/mathx"
)

// subRoom returns r restricted to the candidates ids (ascending): the
// room a table-backed oracle preprocesses for a survivor-masked leaf.
// Re-indexing preserves ID order, so particleLess's ID tie-break agrees.
func subRoom(r Reduced, ids []int) Reduced {
	sub := r
	sub.Pairs = make([]Pair, len(ids))
	for i, id := range ids {
		sub.Pairs[i] = r.Pairs[id]
	}
	return sub
}

// setRatio is (Σ_S a − num)/(Σ_S b + den) over set, summed in the
// ascending order the set is given in.
func setRatio(pairs []Pair, set []int, num, den float64) float64 {
	var sumA, sumB float64
	for _, i := range set {
		sumA += pairs[i].A
		sumB += pairs[i].B
	}
	return (sumA - num) / (sumB + den)
}

// allOnTime is leafSelect's natural start over the candidates ids: their
// all-on time max(0, (A − L)/B).
func allOnTime(pairs []Pair, ids []int, load float64) float64 {
	return math.Max(0, setRatio(pairs, ids, load, 0))
}

// closeTo reports |got − want| ≤ tol·max(|want|, 1): relative above 1,
// absolute below.
func closeTo(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(math.Abs(want), 1)
}

// leafStats counts what checkLeafSelect compared: loads with a winner,
// and those whose winner is a proper subset of the candidates.
type leafStats struct{ won, partial int }

func (s *leafStats) add(o leafStats) { s.won += o.won; s.partial += o.partial }

// checkLeafSelect holds leafSelect over the candidates surv of a leaf
// (nil: every machine) to the table path it replaces, run on pre, the
// tables of the candidates' sub-room: the same k and set as clampedSelect
// with frontSet (the full sweep clampedSelectSweep when full is set), and
// t within 1e-12 of bestTimeFor's at that k, whether the iteration starts
// from the all-on time or from the previous query's t. One solver serves
// every query, as one serves every leaf of a plan.
func checkLeafSelect(t testing.TB, label string, pairs []Pair, surv []int, pre *Preprocessed, b clampBounds, loads []float64, full bool) leafStats {
	t.Helper()
	ids := surv
	if ids == nil {
		ids = allIDs(len(pairs))
	}
	var st leafStats
	var d dinkelbach
	prevT := math.NaN()
	for q, load := range loads {
		// Odd queries start where the last winner ended, as a plan's
		// next leaf does; even ones from the all-on time.
		start := allOnTime(pairs, ids, load)
		if q%2 == 1 && !math.IsNaN(prevT) {
			start = prevT
		}
		got, gotT := d.leafSelect(pairs, surv, load, start, b)
		if got != nil {
			prevT = gotT
		}
		k, e, _ := clampedSelect(pre, load, b)
		if full {
			k, e, _ = clampedSelectSweep(pre, load, b)
		}
		if k == 0 {
			if got != nil {
				t.Fatalf("%s load %v: leafSelect = %v, tables find no feasible k", label, load, got)
			}
			continue
		}
		want := pre.frontSet(e, k)
		for i, li := range want {
			want[i] = ids[li]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s load %v: leafSelect = %v (k %d), tables %v (k %d)", label, load, got, len(got), want, k)
		}
		tWant, _, _ := pre.bestTimeFor(k, load)
		if !closeTo(gotT, tWant, 1e-12) || !mathx.Same(gotT, setRatio(pairs, got, load, 0)) {
			t.Fatalf("%s load %v k %d: t = %v for a set of ratio %v, tables %v", label, load, k, gotT, setRatio(pairs, got, load, 0), tWant)
		}
		st.won++
		if k < len(ids) {
			st.partial++
		}
	}
	return st
}

// TestLeafSelectMatchesTables holds the table-free leaf planner to the
// kinetic tables on every leaf of hierProfile(4096) and
// hierProfile(65536) in their calibrated pods (a sample of the leaves in
// -short and -race runs), at every integer load, one ulp either side of
// it, and random loads: the same k and front set as clampedSelect with
// frontSet, and t within 1e-12 relative (absolute below 1).
func TestLeafSelectMatchesTables(t *testing.T) {
	rng := mathx.NewRand(20)
	stride := 1
	if testing.Short() || raceEnabled {
		stride = 16
	}
	var total leafStats
	for _, n := range []int{4096, 65536} {
		ps, err := NewPodSnapshot(hierProfile(n), 0)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < len(ps.pods); j += stride {
			pd := ps.pods[j]
			pre := mustPreprocess(t, pd.reduced)
			loads := sweepLoads(rng, len(pd.ids), 64)
			total.add(checkLeafSelect(t, fmt.Sprintf("n=%d leaf %d", n, j), pd.reduced.Pairs, nil, pre, pd.bounds, loads, false))
		}
	}
	if total.partial == 0 || total.partial == total.won {
		t.Fatalf("%d of %d winners are partial sets: want some partial and some all-on", total.partial, total.won)
	}
	t.Logf("%d leaf queries with a winner, %d of them partial sets", total.won, total.partial)
}

// TestLeafSelectMatchesFullSweep holds leafSelect, with and without a
// survivor mask, to the full sweep of clampedSelectSweep over the tables
// of its candidates: on the leaves of an 8-pod room with random survivor
// sets, under the pod's own bounds and the room's, and on the smooth
// scaling instance with the set point under the actuator maximum and
// with W2 = 0.
func TestLeafSelectMatchesFullSweep(t *testing.T) {
	rng := mathx.NewRand(6)
	ps, err := NewPodSnapshot(hierProfile(512), 0, WithPodCount(8))
	if err != nil {
		t.Fatal(err)
	}
	var total leafStats
	for j, pd := range ps.pods {
		pairs := pd.reduced.Pairs
		bounds := []clampBounds{pd.bounds, ps.profile.bounds(1)}
		for _, b := range bounds {
			total.add(checkLeafSelect(t, fmt.Sprintf("leaf %d", j), pairs, nil, mustPreprocess(t, pd.reduced), b, sweepLoads(rng, len(pairs), 8), true))
		}
		for trial := 0; trial < 4; trial++ {
			var surv []int
			for i := range pairs {
				if rng.Intn(8) != 0 {
					surv = append(surv, i)
				}
			}
			pre := mustPreprocess(t, subRoom(pd.reduced, surv))
			for _, b := range bounds {
				label := fmt.Sprintf("leaf %d trial %d", j, trial)
				total.add(checkLeafSelect(t, label, pairs, surv, pre, b, sweepLoads(rng, len(surv), 4), true))
			}
		}
	}
	smooth := smoothReduced(256)
	pre := mustPreprocess(t, smooth)
	for _, share := range []float64{1, 1.0 / 32} {
		b := clampBounds{W1: smooth.W1, W2: smooth.W2, CoolFactor: smooth.CoolFactor * share, SetPointC: smooth.SetPointC, TAcMinC: 10, TAcMaxC: 25}
		lowSP, freeK := b, b
		lowSP.SetPointC = lowSP.TAcMaxC - 5
		freeK.W2 = 0
		for _, v := range []clampBounds{b, lowSP, freeK} {
			total.add(checkLeafSelect(t, fmt.Sprintf("smooth share %v", share), smooth.Pairs, nil, pre, v, sweepLoads(rng, 256, 16), true))
		}
	}
	if total.partial == 0 {
		t.Fatal("no leaf query picked fewer than all candidates")
	}
}

// TestLeafMaxLoadMatchesTables holds the table-free budget leaf to
// Preprocessed.MaxLoad over the same leaf's tables, on every leaf of
// hierProfile(4096) in its calibrated pods and of a 16-pod
// hierProfile(1024), at 16 budgets per leaf from below the one-machine
// floor to beyond all-on: the same error, subset, and load and T within
// 1e-12 relative (absolute below 1).
func TestLeafMaxLoadMatchesTables(t *testing.T) {
	rng := mathx.NewRand(21)
	evaluated := 0
	for _, room := range []struct {
		n    int
		opts []PodOption
	}{{4096, nil}, {1024, []PodOption{WithPodCount(16)}}} {
		ps, err := NewPodSnapshot(hierProfile(room.n), 0, room.opts...)
		if err != nil {
			t.Fatal(err)
		}
		p := ps.profile
		for j, pd := range ps.pods {
			pre := mustPreprocess(t, pd.reduced)
			r := pd.reduced
			top := float64(len(pd.ids))*(p.W1+p.W2) + r.CoolFactor*r.SetPointC
			for trial := 0; trial < 16; trial++ {
				budget := rng.Uniform(-0.05, 1.2) * top
				label := fmt.Sprintf("n=%d leaf %d budget %v", room.n, j, budget)
				got, gerr := leafMaxLoad(r, budget)
				want, werr := pre.MaxLoad(budget)
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("%s: err %v, tables %v", label, gerr, werr)
				}
				if werr != nil {
					continue
				}
				evaluated++
				if !slices.Equal(got.Subset, want.Subset) {
					t.Fatalf("%s: subset of %d, tables %d", label, len(got.Subset), len(want.Subset))
				}
				if !closeTo(got.Load, want.Load, 1e-12) || !closeTo(got.T, want.T, 1e-12) {
					t.Fatalf("%s: (load %v, T %v), tables (%v, %v)", label, got.Load, got.T, want.Load, want.T)
				}
			}
		}
	}
	if evaluated == 0 {
		t.Fatal("no budget was feasible")
	}
}

// leafSelectEnum is leafSelect's brute-force oracle: for every
// k ≥ ⌈load⌉, t_k is the largest (Σ_S a − L)/(Σ_S b) over all k-subsets
// S of the candidates, summed in ascending ID order, and the sizes are
// scored by the clamped objective with no floor stop. It returns the
// winning k (0 when none is feasible) and its t_k.
func leafSelectEnum(pairs []Pair, ids []int, load float64, b clampBounds) (bestK int, bestT float64) {
	m := len(ids)
	best := make([]float64, m+1)
	for k := range best {
		best[k] = math.Inf(-1)
	}
	for mask := 1; mask < 1<<m; mask++ {
		var set []int
		for i, id := range ids {
			if mask>>i&1 == 1 {
				set = append(set, id)
			}
		}
		if r := setRatio(pairs, set, load, 0); r > best[len(set)] {
			best[len(set)] = r
		}
	}
	minK := max(1, int(math.Ceil(load-1e-9)))
	bestPower := math.Inf(1)
	for k := minK; k <= m; k++ {
		if !(best[k] >= 0) {
			continue
		}
		if power, ok := b.power(k, best[k], load); ok && power < bestPower-1e-9 {
			bestPower, bestK, bestT = power, k, best[k]
		}
	}
	return bestK, bestT
}

// FuzzLeafSelect holds leafSelect to exhaustive enumeration on rooms of
// at most ten machines: dyadic-grid rooms, optionally nudged by single
// ulps (where kinetic tables can hold stale pieces, so they are no
// oracle) or bent into pencils of lines through one point, with random
// clamp bounds, an optional survivor mask, a load at an integer, one ulp
// off it, or drawn at random, and a start at the all-on time or drawn at
// random. The k must match and the set's ratio must be the largest any
// k-subset reaches, within 1e-12.
func FuzzLeafSelect(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(0), uint16(5), uint16(0), false)
	f.Add(int64(2), uint8(9), uint8(1), uint16(17), uint16(0x2f5), true)
	f.Add(int64(3), uint8(7), uint8(2), uint16(3), uint16(0x7e), true)
	f.Fuzz(func(t *testing.T, seed int64, size, shape uint8, pick, mask uint16, anyStart bool) {
		rng := mathx.NewRand(seed)
		n := 1 + int(size%10)
		r := gridReduced(rng, n)
		switch shape % 3 {
		case 1: // ulp-adjacent intercepts
			for i := range r.Pairs {
				if rng.Intn(2) == 0 {
					r.Pairs[i].A = math.Nextafter(r.Pairs[i].A, math.Inf(1))
				}
			}
		case 2: // every line through one of two points
			for i := range r.Pairs {
				t0 := float64(1 + i%2)
				r.Pairs[i].A = float64(2+i%2) + r.Pairs[i].B*t0
			}
		}
		b := gridBounds(rng, r)
		var surv []int
		if mask != 0 {
			if bits.OnesCount16(mask&(1<<n-1)) == 0 {
				return
			}
			for i := 0; i < n; i++ {
				if mask>>i&1 == 1 {
					surv = append(surv, i)
				}
			}
		}
		ids := surv
		if ids == nil {
			ids = allIDs(n)
		}
		loads := sweepLoads(rng, len(ids), 1)
		load := loads[int(pick)%len(loads)]
		start := allOnTime(r.Pairs, ids, load)
		if anyStart {
			start = rng.Uniform(-2, 20)
		}
		var d dinkelbach
		got, _ := d.leafSelect(r.Pairs, surv, load, start, b)
		wantK, wantT := leafSelectEnum(r.Pairs, ids, load, b)
		if len(got) != wantK {
			t.Fatalf("load %v over %v from %v: leafSelect = %v, enumeration k = %d (t %v)", load, ids, start, got, wantK, wantT)
		}
		if wantK > 0 {
			if tGot := setRatio(r.Pairs, got, load, 0); !closeTo(tGot, wantT, 1e-12) {
				t.Fatalf("load %v over %v from %v: set %v has t = %v, enumeration %v", load, ids, start, got, tGot, wantT)
			}
		}
	})
}
