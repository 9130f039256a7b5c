package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"coolopt/internal/mathx"
)

// clampedSelectSweep is clampedSelect without the cooling-floor stop: every
// k from ⌈load⌉ to n is looked up and scored. Kept, with its own copy of
// the clamped Eq. 23 scorer, as the oracle the early stop must match bit
// for bit.
func clampedSelectSweep(pre *Preprocessed, load float64, b clampBounds) (bestK, bestE int, bestPower float64) {
	n := len(pre.reduced.Pairs)
	minK := int(math.Ceil(load - 1e-9))
	if minK < 1 {
		minK = 1
	}
	bestPower = math.Inf(1)
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
			continue
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
	return bestK, bestE, bestPower
}

// survivorSelectSweep is survivorSelect as it scored before the shared
// scorer and the cooling-floor stop: a comparison sort under
// particleLess, then every prefix scored by its own copy of the clamped
// Eq. 23 objective. The oracle for survivorSelect's set.
func survivorSelectSweep(pairs []Pair, surv []int, load float64, b clampBounds) ([]int, bool) {
	m := len(surv)
	minK := int(math.Ceil(load - 1e-9))
	if minK < 1 {
		minK = 1
	}
	if minK > m {
		return nil, false
	}
	var allA, allB float64
	for _, i := range surv {
		allA += pairs[i].A
		allB += pairs[i].B
	}
	t0 := (allA - load) / allB
	if t0 < 0 {
		t0 = 0
	}
	order := append([]int(nil), surv...)
	sort.Slice(order, func(x, y int) bool {
		return particleLess(pairs, order[x], order[y], t0)
	})
	var prefA, prefB float64
	bestK := 0
	bestPower := math.Inf(1)
	for k := 1; k <= m; k++ {
		prefA += pairs[order[k-1]].A
		prefB += pairs[order[k-1]].B
		if k < minK {
			continue
		}
		t := (prefA - load) / prefB
		if t < 0 {
			continue
		}
		tAc := b.W1 * t
		if tAc > b.TAcMaxC {
			tAc = b.TAcMaxC
		}
		if tAc < b.TAcMinC {
			continue
		}
		cooling := b.CoolFactor * (b.SetPointC - tAc)
		if cooling < 0 {
			cooling = 0
		}
		power := cooling + b.W1*load + float64(k)*b.W2
		if power < bestPower-1e-9 {
			bestPower, bestK = power, k
		}
	}
	if bestK == 0 {
		return nil, false
	}
	out := append([]int(nil), order[:bestK]...)
	sort.Ints(out)
	return out, true
}

// sweepLoads returns the demands probed on a leaf of n machines: every
// integer from 0 to n and one ulp either side of it, plus uniform draws
// over (0, n].
func sweepLoads(rng *mathx.Rand, n, draws int) []float64 {
	var loads []float64
	for l := 0; l <= n; l++ {
		v := float64(l)
		loads = append(loads, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
	}
	for d := 0; d < draws; d++ {
		loads = append(loads, rng.Uniform(0, float64(n)))
	}
	return loads
}

// clampStats counts what checkClampedSelect compared: loads with a
// winner, and those among them whose sweep the cooling floor cut short.
type clampStats struct{ won, stopped int }

func (s *clampStats) add(o clampStats) { s.won += o.won; s.stopped += o.stopped }

// checkClampedSelect holds clampedSelect to the full sweep on one leaf at
// every load — the same k, event and score bits — and the winner's
// frontSet to the full-sort frontSetRebuild at the sweep's winner.
func checkClampedSelect(t testing.TB, label string, pre *Preprocessed, b clampBounds, loads []float64) clampStats {
	t.Helper()
	n := len(pre.reduced.Pairs)
	var st clampStats
	for _, load := range loads {
		k, e, p := clampedSelect(pre, load, b)
		wk, we, wp := clampedSelectSweep(pre, load, b)
		if k != wk || e != we || math.Float64bits(p) != math.Float64bits(wp) {
			t.Fatalf("%s load %v: clampedSelect = (k %d, e %d, %v), full sweep (k %d, e %d, %v)", label, load, k, e, p, wk, we, wp)
		}
		if k == 0 {
			continue
		}
		if got, want := pre.frontSet(e, k), pre.frontSetRebuild(we, wk); !slices.Equal(got, want) {
			t.Fatalf("%s load %v: frontSet = %v, full-sort front set %v", label, load, got, want)
		}
		st.won++
		if wk < n && b.floor(n, load) >= wp-1e-9 {
			st.stopped++
		}
	}
	return st
}

// TestClampedSelectMatchesFullSweep is the early stop's bit-identity
// property: on pod leaves of hierProfile rooms at p ∈ {1, 4, 32, 128}
// with their own share-scaled bounds, with the set point under the
// actuator maximum (a cooling floor of 0) and with W2 = 0, on the smooth
// scaling instance, and on 200 grid rooms nudged by single ulps (where
// stale kinetic pieces make S_k rise), the winner, its event and its
// score equal the full sweep's, and the set equals the full-sort front
// set. Every leaf's cooling leverage must be positive, the premise of
// the floor.
func TestClampedSelectMatchesFullSweep(t *testing.T) {
	rng := mathx.NewRand(18)
	n, draws, nudged := 1024, 64, 200
	if testing.Short() || raceEnabled {
		n, draws, nudged = 256, 16, 50
	}
	var total clampStats
	p := hierProfile(n)
	for _, pods := range []int{1, 4, 32, 128} {
		ps, err := NewPodSnapshot(p, 0, WithPodCount(pods), WithPodBuildWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		for j, pd := range ps.pods {
			if !(pd.bounds.CoolFactor > 0) {
				t.Fatalf("p=%d leaf %d: CoolFactor = %v, want > 0", pods, j, pd.bounds.CoolFactor)
			}
			loads := sweepLoads(rng, len(pd.ids), draws)
			lowSP, freeK := pd.bounds, pd.bounds
			lowSP.SetPointC = lowSP.TAcMaxC - 5
			freeK.W2 = 0
			for _, v := range []struct {
				name string
				b    clampBounds
			}{{"pod", pd.bounds}, {"setpoint<tacmax", lowSP}, {"w2=0", freeK}} {
				total.add(checkClampedSelect(t, fmt.Sprintf("p=%d leaf %d %s", pods, j, v.name), pd.pre, v.b, loads))
			}
		}
	}

	smooth := smoothReduced(256)
	pre := mustPreprocess(t, smooth)
	for _, share := range []float64{1, 1.0 / 32} {
		b := clampBounds{W1: smooth.W1, W2: smooth.W2, CoolFactor: smooth.CoolFactor * share, SetPointC: smooth.SetPointC, TAcMinC: 10, TAcMaxC: 25}
		total.add(checkClampedSelect(t, fmt.Sprintf("smooth share %v", share), pre, b, sweepLoads(rng, 256, draws)))
	}

	// The nudged rooms are TestPersistentFrontSetMatchesRebuild's
	// sequence, extended to 200; bounds and loads come from rng.
	nudgeRng := mathx.NewRand(3)
	for trial := 0; trial < nudged; trial++ {
		r := gridReduced(nudgeRng, 2+nudgeRng.Intn(63))
		for i := range r.Pairs {
			if nudgeRng.Intn(2) == 0 {
				r.Pairs[i].A = math.Nextafter(r.Pairs[i].A, math.Inf(1))
			}
		}
		total.add(checkClampedSelect(t, fmt.Sprintf("nudged trial %d", trial), mustPreprocess(t, r), gridBounds(rng, r), sweepLoads(rng, len(r.Pairs), 4)))
	}
	if total.stopped == 0 || total.stopped == total.won {
		t.Fatalf("floor stopped %d of %d won sweeps: want some stopped and some run to n", total.stopped, total.won)
	}
	t.Logf("%d sweeps with a winner, %d of them stopped at the cooling floor", total.won, total.stopped)
}

// gridBounds draws clamp bounds for a grid room: its own coefficients and
// a dyadic actuation range that often sits above the set point.
func gridBounds(rng *mathx.Rand, r Reduced) clampBounds {
	lo := float64(rng.Intn(8)) / 4
	return clampBounds{W1: r.W1, W2: r.W2, CoolFactor: r.CoolFactor, SetPointC: r.SetPointC, TAcMinC: lo, TAcMaxC: lo + float64(1+rng.Intn(32))/4}
}

// TestSurvivorSelectMatchesFullSweep holds the degraded leaf sweep —
// particles sorted precomputed, the shared scorer, the cooling-floor
// stop — to its full-sweep comparison-sort oracle on the leaves of an
// 8-pod room, with random survivor sets and loads, under the pod's own
// bounds and the room's.
func TestSurvivorSelectMatchesFullSweep(t *testing.T) {
	rng := mathx.NewRand(6)
	ps, err := NewPodSnapshot(hierProfile(512), 0, WithPodCount(8), WithPodBuildWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	partial := 0
	for j, pd := range ps.pods {
		m := len(pd.ids)
		for trial := 0; trial < 8; trial++ {
			var surv []int
			for i := 0; i < m; i++ {
				if rng.Intn(8) != 0 {
					surv = append(surv, i)
				}
			}
			for _, b := range []clampBounds{pd.bounds, ps.profile.bounds(1)} {
				for _, load := range sweepLoads(rng, len(surv), 4) {
					got, ok := survivorSelect(pd.reduced.Pairs, surv, load, b)
					want, wok := survivorSelectSweep(pd.reduced.Pairs, surv, load, b)
					if ok != wok || !slices.Equal(got, want) {
						t.Fatalf("leaf %d trial %d load %v: survivorSelect = (%v, %v), full sweep (%v, %v)", j, trial, load, got, ok, want, wok)
					}
					if ok && len(got) < len(surv) {
						partial++
					}
				}
			}
		}
	}
	if partial == 0 {
		t.Fatal("no survivor sweep picked fewer than all survivors")
	}
}

// FuzzClampedSelect holds the early stop to the full sweep on random
// small rooms: a dyadic-grid room, optionally nudged by single ulps or
// bent into pencils of lines through one point, random dyadic clamp
// bounds (W2 = 0 and a set point under the actuator maximum both come
// up), and a load at an integer, one ulp off it, or drawn at random.
func FuzzClampedSelect(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(0), uint16(5))
	f.Add(int64(2), uint8(48), uint8(1), uint16(300))
	f.Add(int64(3), uint8(9), uint8(2), uint16(7))
	f.Fuzz(func(t *testing.T, seed int64, size, shape uint8, pick uint16) {
		rng := mathx.NewRand(seed)
		n := 1 + int(size%64)
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
		loads := sweepLoads(rng, n, 1)
		checkClampedSelect(t, "fuzz", mustPreprocess(t, r), b, loads[int(pick)%len(loads):][:1])
	})
}
