package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"coolopt/internal/mathx"
)

// refineUnionScan is the reference union refinement: the same bounded
// exchange as refineUnionBlocked, finding the top outsider and the bottom
// insider by scanning all n machines on every move. The kinetic
// tournaments must reproduce its unions exactly, tie-breaks included.
func (pt *planTree) refineUnionScan(union []int, load float64, blocked []bool) []int {
	r := pt.room
	p := pt.profile
	n := len(r.Pairs)
	in := make([]bool, n)
	var sumA, sumB float64
	for _, i := range union {
		in[i] = true
		sumA += r.Pairs[i].A
		sumB += r.Pairs[i].B
	}
	k := len(union)
	minK := int(math.Ceil(load - 1e-9))
	if minK < 1 {
		minK = 1
	}
	score := func(k int, sumA, sumB float64) (float64, bool) {
		t := (sumA - load) / sumB
		if t < 0 {
			return 0, false
		}
		tAc := p.W1 * t
		if tAc > p.TAcMaxC {
			tAc = p.TAcMaxC
		}
		if tAc < p.TAcMinC {
			return 0, false
		}
		cooling := p.CoolFactor * (p.SetPointC - tAc)
		if cooling < 0 {
			cooling = 0
		}
		return cooling + p.W1*load + float64(k)*p.W2, true
	}
	cur, ok := score(k, sumA, sumB)
	if !ok {
		return union
	}
	maxMoves := 4*len(pt.pods) + 8
	for move := 0; move < maxMoves; move++ {
		t := (sumA - load) / sumB
		addIdx, remIdx := -1, -1
		var addX, remX float64
		for i := 0; i < n; i++ {
			x := r.Pairs[i].A - t*r.Pairs[i].B
			if in[i] {
				if remIdx < 0 || x < remX {
					remIdx, remX = i, x
				}
			} else if blocked != nil && blocked[i] {
				continue
			} else if addIdx < 0 || x > addX {
				addIdx, addX = i, x
			}
		}
		bestIdx, bestAdd := -1, false
		bestPower := cur
		if addIdx >= 0 {
			if w, ok := score(k+1, sumA+r.Pairs[addIdx].A, sumB+r.Pairs[addIdx].B); ok && w < bestPower-1e-9 {
				bestIdx, bestAdd, bestPower = addIdx, true, w
			}
		}
		if remIdx >= 0 && k > minK {
			if w, ok := score(k-1, sumA-r.Pairs[remIdx].A, sumB-r.Pairs[remIdx].B); ok && w < bestPower-1e-9 {
				bestIdx, bestAdd, bestPower = remIdx, false, w
			}
		}
		swap := false
		if addIdx >= 0 && remIdx >= 0 && addIdx != remIdx {
			swapA := sumA - r.Pairs[remIdx].A + r.Pairs[addIdx].A
			swapB := sumB - r.Pairs[remIdx].B + r.Pairs[addIdx].B
			if w, ok := score(k, swapA, swapB); ok && w < bestPower-1e-9 {
				swap, bestPower = true, w
			}
		}
		switch {
		case swap:
			in[remIdx], in[addIdx] = false, true
			sumA += r.Pairs[addIdx].A - r.Pairs[remIdx].A
			sumB += r.Pairs[addIdx].B - r.Pairs[remIdx].B
		case bestIdx < 0:
			return unionFromMask(in, k)
		case bestAdd:
			in[bestIdx] = true
			sumA += r.Pairs[bestIdx].A
			sumB += r.Pairs[bestIdx].B
			k++
		default:
			in[bestIdx] = false
			sumA -= r.Pairs[bestIdx].A
			sumB -= r.Pairs[bestIdx].B
			k--
		}
		cur = bestPower
	}
	return unionFromMask(in, k)
}

// rawUnion is the healthy pod union before refinement, as selectUnion
// gathers it.
func rawUnion(t testing.TB, pt *planTree, load float64) []int {
	t.Helper()
	var w leafWalk
	if err := pt.selectFor(pt.root, load, pt.healthyAggs(), nil, &w); err != nil {
		t.Fatalf("select load %v: %v", load, err)
	}
	return w.union
}

// checkRefineMatchesScan refines union both ways and fails on any
// difference. Neither pass may modify its input.
func checkRefineMatchesScan(t *testing.T, label string, pt *planTree, union []int, load float64, blocked []bool) {
	t.Helper()
	orig := slices.Clone(union)
	want := pt.refineUnionScan(slices.Clone(union), load, blocked)
	got := pt.refineUnionBlocked(union, load, blocked)
	if !slices.Equal(union, orig) {
		t.Fatalf("%s: refinement modified its input union", label)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: tournament union differs from the scan's\n got %v\nwant %v", label, got, want)
	}
}

// perturbUnion flips a few seeded memberships, skipping blocked machines
// on the way in, so the refinement starts farther from its fixed point
// and makes more moves than it does from a pod union.
func perturbUnion(rng *mathx.Rand, union []int, n, flips int, blocked []bool) []int {
	in := make([]bool, n)
	for _, i := range union {
		in[i] = true
	}
	for f := 0; f < flips; f++ {
		i := rng.Intn(n)
		if !in[i] && blocked != nil && blocked[i] {
			continue
		}
		in[i] = !in[i]
	}
	return unionFromMask(in, len(union))
}

// TestRefineUnionMatchesScan is the differential line for real pod
// unions: at depths 2, 3 and 4, healthy and with avoid lists, from the
// planner's own unions and from perturbed ones, the tournament pass must
// return exactly the scan's union.
func TestRefineUnionMatchesScan(t *testing.T) {
	const n = 512
	p := hierProfile(n)
	for _, depth := range []int{2, 3, 4} {
		ps, err := NewPodSnapshot(p, 0, WithPodSize(16), WithPodDepth(depth))
		if err != nil {
			t.Fatal(err)
		}
		if got := ps.Depth(); got != depth {
			t.Fatalf("depth %d: built a depth-%d tree", depth, got)
		}
		pt := &ps.planTree
		rng := mathx.NewRand(int64(depth))
		for q := 0; q < 24; q++ {
			load := (0.04 + 0.92*float64(q)/23) * n
			union := rawUnion(t, pt, load)
			var blocked []bool
			if q%3 == 1 {
				blocked = make([]bool, n)
				for _, id := range spreadAvoid(n, 1+rng.Intn(24)) {
					blocked[id] = true
				}
				kept := union[:0:0]
				for _, id := range union {
					if !blocked[id] {
						kept = append(kept, id)
					}
				}
				union = kept
			}
			label := fmt.Sprintf("depth %d load %.2f avoid %v", depth, load, blocked != nil)
			checkRefineMatchesScan(t, label, pt, union, load, blocked)
			checkRefineMatchesScan(t, label+" perturbed", pt, perturbUnion(rng, union, n, 12, blocked), load, blocked)
		}
	}
}

// craftedTree is a planner over hand-made lines: the refinement reads
// only the room's pairs, the profile's scoring constants and the leaf
// count, so adversarial geometries need no kinetic tables.
func craftedTree(pairs []Pair, leaves int, w2, coolFactor float64) *planTree {
	p := &Profile{W1: 1, W2: w2, CoolFactor: coolFactor, SetPointC: 1e6, TMaxC: 1e6, TAcMinC: 0, TAcMaxC: 1e6}
	return &planTree{profile: p, room: Reduced{Pairs: pairs}, pods: make([]*pod, leaves)}
}

// TestRefineUnionAdversarialRooms pins the tie and rounding corners the
// tournament certificates must get right: duplicate machines (identical
// lines), parallel lines whose intercepts are one ulp apart, and a
// crossing that lands exactly on the room's t.
func TestRefineUnionAdversarialRooms(t *testing.T) {
	rng := mathx.NewRand(7)
	randomUnion := func(n int) []int {
		var u []int
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				u = append(u, i)
			}
		}
		if len(u) == 0 {
			u = append(u, rng.Intn(n))
		}
		return u
	}

	t.Run("duplicates", func(t *testing.T) {
		const n = 96
		kinds := []Pair{{A: 3, B: 1}, {A: 2.5, B: 0.5}, {A: 4, B: 2}}
		pairs := make([]Pair, n)
		for i := range pairs {
			pairs[i] = kinds[rng.Intn(len(kinds))]
		}
		pt := craftedTree(pairs, 8, 0.05, 3)
		for trial := 0; trial < 40; trial++ {
			union := randomUnion(n)
			load := 0.5 * float64(len(union)) * rng.Float64()
			checkRefineMatchesScan(t, fmt.Sprintf("trial %d", trial), pt, union, load, nil)
		}
	})

	t.Run("parallel-ulp", func(t *testing.T) {
		const n = 64
		pairs := make([]Pair, n)
		for i := range pairs {
			a := 2.0 + float64(i%4)
			for s := 0; s < i%5; s++ {
				a = math.Nextafter(a, math.Inf(1))
			}
			pairs[i] = Pair{A: a, B: 0.25 * float64(1+i%3)}
		}
		pt := craftedTree(pairs, 4, 0.02, 2)
		for trial := 0; trial < 40; trial++ {
			union := randomUnion(n)
			var blocked []bool
			if trial%2 == 1 {
				blocked = make([]bool, n)
				for f := 0; f < 6; f++ {
					blocked[rng.Intn(n)] = true
				}
			}
			load := 0.5 * float64(len(union)) * rng.Float64()
			checkRefineMatchesScan(t, fmt.Sprintf("trial %d", trial), pt, union, load, blocked)
		}
	})

	t.Run("crossing-at-t", func(t *testing.T) {
		// Insiders 0 and 1 give ΣA = 10, ΣB = 4, so load 2 puts the room
		// at t = 2 exactly. Outsiders 2 and 3 cross at t = 2 (x = 3 for
		// both), as do outsiders 4 and 5 (x = 1); the scan's tie-break
		// must pick the lower ID at that exact t.
		pairs := []Pair{
			{A: 6, B: 2}, {A: 4, B: 2},
			{A: 7, B: 2}, {A: 5, B: 1},
			{A: 3, B: 1}, {A: 5, B: 2},
		}
		for _, w2 := range []float64{0.01, 0.5, 2} {
			pt := craftedTree(pairs, 2, w2, 4)
			checkRefineMatchesScan(t, fmt.Sprintf("w2 %v", w2), pt, []int{0, 1}, 2, nil)
		}
		// The first move's tournaments at t = 2 must agree with the scan.
		in := []bool{true, true, false, false, false, false}
		out := []bool{false, false, true, true, true, true}
		if got := newLineTournament(pairs, out, true, 2).best(2); got != 2 {
			t.Fatalf("top outsider at the crossing = %d, want 2 (lower ID on the tie)", got)
		}
		if got := newLineTournament(pairs, in, false, 2).best(2); got != 1 {
			t.Fatalf("bottom insider = %d, want 1", got)
		}
	})
}

// TestLineTournamentMatchesScanUnderMotion drives one pair of trees
// through many t values and membership changes on a coarse dyadic grid,
// where duplicate lines and exact crossings are common, and checks the
// root against a fresh ascending scan at every step. The nudged rooms
// move half the intercepts up by one ulp: such near-duplicates compute
// apart at small t but round to the same A − t*B once t·B outgrows A, so
// a certificate that ignored rounding would keep the wrong winner.
func TestLineTournamentMatchesScanUnderMotion(t *testing.T) {
	rng := mathx.NewRand(11)
	for trial, n := range []int{1, 2, 3, 17, 64, 17, 64, 256} {
		r := gridReduced(rng, n)
		if trial >= 5 {
			for i := range r.Pairs {
				if rng.Intn(2) == 0 {
					r.Pairs[i].A = math.Nextafter(r.Pairs[i].A, math.Inf(1))
				}
			}
		}
		present := make([]bool, n)
		for i := range present {
			present[i] = rng.Intn(2) == 0
		}
		tv := float64(rng.Intn(64)) / 8
		top := newLineTournament(r.Pairs, present, true, tv)
		bottom := newLineTournament(r.Pairs, present, false, tv)
		for step := 0; step < 200; step++ {
			if rng.Intn(3) == 0 {
				tv = float64(rng.Intn(64)) / 8 // exact grid times: crossings land on them
			} else {
				tv = math.Max(0, tv+rng.Uniform(-0.5, 0.5))
			}
			wantTop, wantBottom := scanExtremes(r.Pairs, present, tv)
			if got := top.best(tv); got != wantTop {
				t.Fatalf("n %d step %d t %v: top = %d, want %d", n, step, tv, got, wantTop)
			}
			if got := bottom.best(tv); got != wantBottom {
				t.Fatalf("n %d step %d t %v: bottom = %d, want %d", n, step, tv, got, wantBottom)
			}
			i := rng.Intn(n)
			present[i] = !present[i]
			top.fix(i, tv)
			bottom.fix(i, tv)
		}
	}
}

// scanExtremes is the ascending scan over the present lines at t: the
// first maximum and the first minimum, −1 when none is present.
func scanExtremes(pairs []Pair, present []bool, t float64) (hi, lo int) {
	hi, lo = -1, -1
	var hiX, loX float64
	for i, pr := range pairs {
		if !present[i] {
			continue
		}
		x := pr.A - t*pr.B
		if hi < 0 || x > hiX {
			hi, hiX = i, x
		}
		if lo < 0 || x < loX {
			lo, loX = i, x
		}
	}
	return hi, lo
}

// FuzzRefineUnion holds the differential line on random small rooms: the
// seed draws a dyadic-grid room (duplicates and exact crossings common),
// optionally nudged by single ulps, a union, a load and an avoid list,
// and the tournament pass must return the scan's union exactly.
func FuzzRefineUnion(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(0), uint8(0))
	f.Add(int64(2), uint8(48), uint8(1), uint8(3))
	f.Add(int64(3), uint8(7), uint8(2), uint8(1))
	f.Add(int64(4), uint8(64), uint8(3), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, size, shape, avoid uint8) {
		rng := mathx.NewRand(seed)
		n := 1 + int(size%64)
		r := gridReduced(rng, n)
		if shape&1 != 0 { // ulp-adjacent intercepts
			for i := range r.Pairs {
				if rng.Intn(2) == 0 {
					r.Pairs[i].A = math.Nextafter(r.Pairs[i].A, math.Inf(1))
				}
			}
		}
		w2 := float64(rng.Intn(9)) / 32
		if shape&2 != 0 {
			w2 = 0
		}
		pt := craftedTree(r.Pairs, 1+rng.Intn(8), w2, float64(1+rng.Intn(8)))
		var union []int
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				union = append(union, i)
			}
		}
		if len(union) == 0 {
			union = []int{rng.Intn(n)}
		}
		var blocked []bool
		if avoid%4 != 0 {
			blocked = make([]bool, n)
			for a := 0; a < int(avoid%16); a++ {
				blocked[rng.Intn(n)] = true
			}
		}
		var sumA float64
		for _, i := range union {
			sumA += r.Pairs[i].A
		}
		load := sumA * float64(rng.Intn(33)) / 32
		checkRefineMatchesScan(t, fmt.Sprintf("seed %d", seed), pt, union, load, blocked)
	})
}

// BenchmarkRefineUnion refines one fixed pod union at n = 16 384 in 32
// pods, the scan and the tournament pass side by side.
func BenchmarkRefineUnion(b *testing.B) {
	const n, pods = 16384, 32
	ps, err := NewPodSnapshot(hierProfile(n), 0, WithPodCount(pods))
	if err != nil {
		b.Fatal(err)
	}
	pt := &ps.planTree
	load := 0.37 * n
	union := rawUnion(b, pt, load)
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pt.refineUnionScan(union, load, nil)
		}
	})
	b.Run("tournament", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pt.refineUnionBlocked(union, load, nil)
		}
	})
}
