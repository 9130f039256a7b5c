package core

import (
	"fmt"
	"math"
	"testing"

	"coolopt/internal/mathx"
)

// pieceFor returns the arena index of the S_k piece covering event
// interval e: the event-keyed lookup the nested searches below repeat on
// every probe.
func (pp *Preprocessed) pieceFor(k, e int) int {
	lo, hi := pp.segOff[k-1], pp.segOff[k]-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if int(pp.segEvent[mid]) <= e {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// sumAt evaluates S_k at event time events[e] — the k-prefix coordinate
// sum the dense table stores as prefixA[e][k] − t·prefixB[e][k].
func (pp *Preprocessed) sumAt(k, e int) float64 {
	j := pp.pieceFor(k, e)
	return pp.segA[j] - pp.events[e]*pp.segB[j]
}

// bestTimeForNested is the event-grid form of bestTimeFor that the
// piece-first search replaced: a binary search over every event whose
// probes each bisect k's piece list again (sumAt). Kept as the test
// oracle the piece-first lookups must match bit for bit.
func (pp *Preprocessed) bestTimeForNested(k int, load float64) (t float64, event int, ok bool) {
	if pp.sumAt(k, 0) < load {
		return 0, 0, false
	}
	lo, hi := 0, len(pp.events)-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if pp.sumAt(k, mid) >= load {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	e := lo
	j := pp.pieceFor(k, e)
	tStar := (pp.segA[j] - load) / pp.segB[j]
	if tStar < pp.events[e] {
		tStar = pp.events[e]
	}
	if e+1 < len(pp.events) && tStar > pp.events[e+1] {
		tStar = pp.events[e+1]
	}
	return tStar, e, true
}

// maxLoadBoundaryNested is the event-grid form of maxLoadBoundary, kept
// as its oracle.
func (pp *Preprocessed) maxLoadBoundaryNested(budgetW float64, k int) (load, t float64, event int, err error) {
	n := len(pp.reduced.Pairs)
	if k < 1 || k > n {
		return 0, 0, 0, fmt.Errorf("core: k = %d outside [1, %d]", k, n)
	}
	r := pp.reduced
	if r.W1 <= 0 || r.Rho <= 0 {
		return 0, 0, 0, fmt.Errorf("core: reduced instance missing W1/Rho")
	}
	loadAt := func(t float64) float64 {
		return (budgetW - float64(k)*r.W2 - r.CoolFactor*r.SetPointC + r.Rho*t) / r.W1
	}
	frontAt := func(e int, t float64) float64 {
		j := pp.pieceFor(k, e)
		return pp.segA[j] - t*pp.segB[j]
	}
	g := func(e int) float64 { return frontAt(e, pp.events[e]) - loadAt(pp.events[e]) }
	if g(0) < 0 {
		if loadAt(0) < 0 {
			return 0, 0, 0, fmt.Errorf("%w: budget %v W below the %d-machine floor", ErrInfeasible, budgetW, k)
		}
		return frontAt(0, 0), 0, 0, nil
	}
	lo, hi := 0, len(pp.events)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if g(mid) >= 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	e := lo
	j := pp.pieceFor(k, e)
	num := pp.segA[j] - (budgetW-float64(k)*r.W2-r.CoolFactor*r.SetPointC)/r.W1
	den := pp.segB[j] + r.Rho/r.W1
	tStar := num / den
	if tStar < pp.events[e] {
		tStar = pp.events[e]
	}
	if e+1 < len(pp.events) && tStar > pp.events[e+1] {
		tStar = pp.events[e+1]
	}
	return loadAt(tStar), tStar, e, nil
}

// queryPickNested is the event-grid form of Query's k sweep: the status
// row (k, event) with the smallest S_k value exceeding the load, ok false
// when none does.
func (pp *Preprocessed) queryPickNested(load float64) (k, e int, ok bool) {
	bestVal := math.Inf(1)
	for kk := 1; kk <= len(pp.reduced.Pairs); kk++ {
		if pp.sumAt(kk, 0) <= load {
			continue
		}
		lo, hi := 0, len(pp.events)-1
		for lo < hi {
			mid := int(uint(lo+hi+1) >> 1)
			if pp.sumAt(kk, mid) > load {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		if v := pp.sumAt(kk, lo); v < bestVal {
			bestVal, k, e = v, kk, lo
		}
	}
	return k, e, !math.IsInf(bestVal, 1)
}

// queryNested is Algorithm 2's Query over the event-grid search, kept as
// the oracle of the piece-first Query.
func (pp *Preprocessed) queryNested(load float64) (Selection, error) {
	k, e, ok := pp.queryPickNested(load)
	if !ok {
		return Selection{}, fmt.Errorf("%w: load %v exceeds every status", ErrInfeasible, load)
	}
	subset := pp.frontSet(e, k)
	t, err := pp.reduced.TValue(subset, load)
	if err != nil {
		return Selection{}, err
	}
	power := float64(k)*pp.reduced.W2 - pp.reduced.Rho*t + pp.reduced.Theta(load)
	return Selection{Subset: subset, T: t, Power: power}, nil
}

// risesAt reports whether S_k's tabulated value rises anywhere along the
// event grid. Within a piece a − t·b cannot rise (b > 0 and rounding is
// monotone), so only piece starts are checked against the event before.
// Both searches assume it never rises: the grid's covered events are
// then a prefix, which each finds the end of. Where it does rise — a
// sweep defect on ulp-perturbed rooms, see TestLookupsOnUlpNudgedRooms —
// the covered events are not a prefix and the two searches may stop at
// different ends of covered runs.
func (pp *Preprocessed) risesAt(k int) bool {
	for j := pp.segOff[k-1] + 1; j < pp.segOff[k]; j++ {
		e := int(pp.segEvent[j])
		if pp.sumAt(k, e) > pp.sumAt(k, e-1) {
			return true
		}
	}
	return false
}

// lookupLoads returns the demand levels probed for subset size k: every
// piece's value at its own start event (the piece-first search's probe
// points) and one ulp either side of it, the value at the event before
// each piece start, and uniform draws up to just past S_k at t = 0.
func lookupLoads(rng *mathx.Rand, pp *Preprocessed, k, draws int) []float64 {
	var loads []float64
	for j := pp.segOff[k-1]; j < pp.segOff[k]; j++ {
		e := int(pp.segEvent[j])
		v := pp.sumAt(k, e)
		loads = append(loads, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
		if e > 0 {
			loads = append(loads, pp.sumAt(k, e-1))
		}
	}
	top := pp.sumAt(k, 0)
	for d := 0; d < draws; d++ {
		loads = append(loads, rng.Uniform(0, 1.05*top))
	}
	return loads
}

// boundaryBudget is the budget whose boundary load at event e equals S_k
// there (up to rounding), putting maxLoad's crossing on the event.
func boundaryBudget(pp *Preprocessed, k, e int) float64 {
	r := pp.reduced
	return pp.sumAt(k, e)*r.W1 - r.Rho*pp.events[e] + float64(k)*r.W2 + r.CoolFactor*r.SetPointC
}

// lookupStats counts what checkLookups compared.
type lookupStats struct {
	exact, rising int
}

// checkLookups holds the differential line between the piece-first
// lookups and their event-grid oracles on one table: for every k whose
// S_k never rises along the grid, bestTimeFor and maxLoadBoundary must
// return the oracle's (t, e, ok) bit for bit at every probed load and
// budget; where S_k rises, each must still stop at a covered event whose
// successor is uncovered, with t inside that event's interval.
func checkLookups(t *testing.T, label string, pp *Preprocessed, rng *mathx.Rand, draws int) lookupStats {
	t.Helper()
	var st lookupStats
	n := len(pp.reduced.Pairs)
	for k := 1; k <= n; k++ {
		rises := pp.risesAt(k)
		if rises {
			st.rising++
		} else {
			st.exact++
		}
		for _, load := range lookupLoads(rng, pp, k, draws) {
			tv, e, ok := pp.bestTimeFor(k, load)
			if !rises {
				wt, we, wok := pp.bestTimeForNested(k, load)
				if ok != wok || e != we || math.Float64bits(tv) != math.Float64bits(wt) {
					t.Fatalf("%s: k %d load %v: bestTimeFor = (%v, %d, %v), nested (%v, %d, %v)", label, k, load, tv, e, ok, wt, we, wok)
				}
				continue
			}
			checkTransition(t, label, pp, k, load, nil, tv, e, ok)
		}
		budgets := []float64{boundaryBudget(pp, k, 0), boundaryBudget(pp, k, len(pp.events)-1)}
		for j := pp.segOff[k-1]; j < pp.segOff[k]; j++ {
			budgets = append(budgets, boundaryBudget(pp, k, int(pp.segEvent[j])))
		}
		for d := 0; d < draws; d++ {
			budgets = append(budgets, rng.Uniform(budgets[1], budgets[0]))
		}
		for _, b := range budgets {
			ml, tv, e, err := pp.maxLoadBoundary(b, k)
			if !rises {
				wl, wt, we, werr := pp.maxLoadBoundaryNested(b, k)
				if (err == nil) != (werr == nil) || e != we || math.Float64bits(ml) != math.Float64bits(wl) || math.Float64bits(tv) != math.Float64bits(wt) {
					t.Fatalf("%s: k %d budget %v: maxLoadBoundary = (%v, %v, %d, %v), nested (%v, %v, %d, %v)", label, k, b, ml, tv, e, err, wl, wt, we, werr)
				}
				continue
			}
			r := pp.reduced
			bl := &budgetLine{c: b - float64(k)*r.W2 - r.CoolFactor*r.SetPointC, rho: r.Rho, w1: r.W1}
			_, ce, ok := pp.lastCovered(k, 0, bl)
			if ok && (err != nil || ce != e) {
				t.Fatalf("%s: k %d budget %v: maxLoadBoundary = (%d, %v), its search found event %d", label, k, b, e, err, ce)
			}
			checkTransition(t, label, pp, k, 0, bl, tv, ce, ok)
		}
	}
	return st
}

// checkTransition asserts the weaker property both searches share on any
// table: the event found is covered and the next one is not, and t lies
// in the found event's interval.
func checkTransition(t *testing.T, label string, pp *Preprocessed, k int, load float64, bl *budgetLine, tv float64, e int, ok bool) {
	t.Helper()
	covered := func(e int) bool {
		v := pp.sumAt(k, e)
		if bl != nil {
			return v-bl.loadAt(pp.events[e]) >= 0
		}
		return v >= load
	}
	if ok != covered(0) {
		t.Fatalf("%s: k %d: ok = %v, but event 0 covered = %v", label, k, ok, covered(0))
	}
	if !ok {
		return
	}
	if !covered(e) || (e+1 < len(pp.events) && covered(e+1)) {
		t.Fatalf("%s: k %d: event %d is not the end of a covered run", label, k, e)
	}
	if tv < pp.events[e] || (e+1 < len(pp.events) && tv > pp.events[e+1]) {
		t.Fatalf("%s: k %d: t %v outside event %d's interval", label, k, tv, e)
	}
}

// checkQueryMatchesNested compares Algorithm 2's Query with its oracle on
// a table where no S_k rises: the same subset, T and power bits.
func checkQueryMatchesNested(t *testing.T, label string, pp *Preprocessed, loads []float64) {
	t.Helper()
	for _, load := range loads {
		got, err := pp.Query(load)
		want, werr := pp.queryNested(load)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%s: Query(%v) error %v, nested %v", label, load, err, werr)
		}
		if err != nil {
			continue
		}
		if fmt.Sprint(got.Subset) != fmt.Sprint(want.Subset) ||
			math.Float64bits(got.T) != math.Float64bits(want.T) ||
			math.Float64bits(got.Power) != math.Float64bits(want.Power) {
			t.Fatalf("%s: Query(%v) = %+v, nested %+v", label, load, got, want)
		}
	}
}

// queryLoads returns each k's value at event 0 (the largest status row
// S_k reaches) and, draws times each, the value of a random piece at its
// start event and a uniform load over the room's range. Status values
// put Query's strict > test on its boundary.
func queryLoads(rng *mathx.Rand, pp *Preprocessed, draws int) []float64 {
	n := len(pp.reduced.Pairs)
	var loads []float64
	for k := 1; k <= n; k++ {
		loads = append(loads, pp.sumAt(k, 0))
	}
	top := pp.sumAt(n, 0)
	for d := 0; d < draws; d++ {
		k := 1 + rng.Intn(n)
		j := pp.segOff[k-1] + rng.Intn(pp.segOff[k]-pp.segOff[k-1])
		loads = append(loads, pp.sumAt(k, int(pp.segEvent[j])), rng.Uniform(0, 1.05*top))
	}
	return loads
}

// mustPreprocess builds single-threaded tables or fails the test.
func mustPreprocess(t testing.TB, r Reduced) *Preprocessed {
	t.Helper()
	pp, err := Preprocess(r, WithPreprocessWorkers(1), WithMaxMachines(len(r.Pairs)))
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

// TestLookupsMatchNested is the differential test of the piece-first
// lookups on the serving regime's rooms and on exact-tie adversarial
// ones: every k of every table here has a never-rising S_k, so every
// lookup must equal the event-grid oracle bit for bit.
func TestLookupsMatchNested(t *testing.T) {
	rng := mathx.NewRand(14)
	rooms := []struct {
		name string
		r    Reduced
	}{
		{"hier512", hierProfile(512).Reduce()},
		{"smooth256", smoothReduced(256)},
	}
	// Duplicate intercepts: a few distinct a values shared by many speeds.
	dupA := make([]Pair, 48)
	for i := range dupA {
		dupA[i] = Pair{A: float64(4 + i%3), B: float64(1+rng.Intn(16)) / 8}
	}
	rooms = append(rooms, struct {
		name string
		r    Reduced
	}{"duplicate-a", Reduced{Pairs: dupA, W2: 0.5, Rho: 1.5, CoolFactor: 1, SetPointC: 2, W1: 1}})
	// Parallel lines: shared speeds, so most pairs never cross.
	par := make([]Pair, 48)
	for i := range par {
		par[i] = Pair{A: float64(1+rng.Intn(64)) / 4, B: float64(1+i%2) / 2}
	}
	rooms = append(rooms, struct {
		name string
		r    Reduced
	}{"parallel", Reduced{Pairs: par, W2: 0.25, Rho: 0.75, CoolFactor: 1, SetPointC: 1, W1: 0.5}})
	// Multi-way crossings: three pencils of lines, each through one
	// dyadic point, so whole groups cross at exactly one time.
	pencil := make([]Pair, 48)
	for i := range pencil {
		t0, x0 := float64(1+i%3), float64(2+i%3)
		b := float64(1+i/3) / 16
		pencil[i] = Pair{A: x0 + b*t0, B: b}
	}
	rooms = append(rooms, struct {
		name string
		r    Reduced
	}{"pencils", Reduced{Pairs: pencil, W2: 0.5, Rho: 1, CoolFactor: 1, SetPointC: 3, W1: 1}})
	for trial := 0; trial < 6; trial++ {
		rooms = append(rooms, struct {
			name string
			r    Reduced
		}{fmt.Sprintf("grid%d", trial), gridReduced(rng, 8+rng.Intn(56))})
	}

	for _, room := range rooms {
		pp := mustPreprocess(t, room.r)
		st := checkLookups(t, room.name, pp, rng, 4)
		if st.rising != 0 {
			t.Fatalf("%s: %d of %d subset sizes have a rising S_k; this room should have none", room.name, st.rising, st.rising+st.exact)
		}
		checkQueryMatchesNested(t, room.name, pp, queryLoads(rng, pp, 32))
	}
}

// TestLookupsMatchNestedOnPatchedRooms repeats the differential line on
// tables rebuilt by Patch: the whole-room splice and every leaf of a
// patched pod tree.
func TestLookupsMatchNestedOnPatchedRooms(t *testing.T) {
	rng := mathx.NewRand(41)
	base := hierProfile(96)
	flat, err := NewSnapshot(base, 0, WithPatchSupport(), WithPreprocessWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	pods, err := NewPodSnapshot(base, 0, WithPodCount(4), WithPodBuildWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		batch := driftBatch(rng, base, 1+rng.Intn(12))
		if flat, err = flat.Patch(batch, WithPreprocessWorkers(1)); err != nil {
			t.Fatal(err)
		}
		if pods, err = pods.Patch(batch); err != nil {
			t.Fatal(err)
		}
		base = applyBatch(base, batch)
		tables := []*Preprocessed{flat.Tables()}
		for _, pd := range pods.pods {
			tables = append(tables, pd.pre)
		}
		for i, pp := range tables {
			label := fmt.Sprintf("round %d table %d", round, i)
			if st := checkLookups(t, label, pp, rng, 4); st.rising != 0 {
				t.Fatalf("%s: %d subset sizes have a rising S_k", label, st.rising)
			}
			checkQueryMatchesNested(t, label, pp, queryLoads(rng, pp, 16))
		}
	}
}

// TestLookupsOnUlpNudgedRooms covers the one regime where the searches
// may part: dyadic-grid rooms whose intercepts are nudged up by one ulp
// at random. There the kinetic sweep can leave a stale piece across
// near-tie events, so S_k rises at the next piece start and the covered
// events stop being a prefix. Every k whose S_k never rises must still
// match the oracle bit for bit; a rising k must stop at the end of a
// covered run, as the oracle does. Both counts must be non-zero, so the
// test keeps exercising both branches.
func TestLookupsOnUlpNudgedRooms(t *testing.T) {
	rng := mathx.NewRand(3)
	var total lookupStats
	for trial := 0; trial < 60; trial++ {
		r := gridReduced(rng, 2+rng.Intn(63))
		for i := range r.Pairs {
			if rng.Intn(2) == 0 {
				r.Pairs[i].A = math.Nextafter(r.Pairs[i].A, math.Inf(1))
			}
		}
		st := checkLookups(t, fmt.Sprintf("trial %d", trial), mustPreprocess(t, r), rng, 2)
		total.exact += st.exact
		total.rising += st.rising
	}
	if total.exact == 0 || total.rising == 0 {
		t.Fatalf("exact %d, rising %d subset sizes: want both non-zero", total.exact, total.rising)
	}
	t.Logf("%d subset sizes matched bit for bit, %d rising ones checked for a covered-run end", total.exact, total.rising)
}

// TestLookupsNaNDemandMatchesNested pins the one input where covering and
// failing are not each other's negation: a NaN load or budget must flow
// through the piece-first lookups exactly as through the oracles.
func TestLookupsNaNDemandMatchesNested(t *testing.T) {
	pp := mustPreprocess(t, smoothReduced(32))
	nan := math.NaN()
	for k := 1; k <= 32; k++ {
		tv, e, ok := pp.bestTimeFor(k, nan)
		wt, we, wok := pp.bestTimeForNested(k, nan)
		if ok != wok || e != we || math.Float64bits(tv) != math.Float64bits(wt) {
			t.Fatalf("k %d: bestTimeFor(NaN) = (%v, %d, %v), nested (%v, %d, %v)", k, tv, e, ok, wt, we, wok)
		}
		ml, tv, e, err := pp.maxLoadBoundary(nan, k)
		wl, wt, we, werr := pp.maxLoadBoundaryNested(nan, k)
		if (err == nil) != (werr == nil) || e != we || math.Float64bits(ml) != math.Float64bits(wl) || math.Float64bits(tv) != math.Float64bits(wt) {
			t.Fatalf("k %d: maxLoadBoundary(NaN) = (%v, %v, %d, %v), nested (%v, %v, %d, %v)", k, ml, tv, e, err, wl, wt, we, werr)
		}
	}
	got, err := pp.Query(nan)
	want, werr := pp.queryNested(nan)
	if (err == nil) != (werr == nil) || fmt.Sprint(got.Subset) != fmt.Sprint(want.Subset) ||
		math.Float64bits(got.T) != math.Float64bits(want.T) || math.Float64bits(got.Power) != math.Float64bits(want.Power) {
		t.Fatalf("Query(NaN) = (%+v, %v), nested (%+v, %v)", got, err, want, werr)
	}
}

// FuzzBestTimeFor holds the differential line on random small rooms: a
// dyadic-grid room (duplicates and exact simultaneous crossings common),
// optionally nudged by single ulps or bent into pencils of lines through
// one point, one subset size and a load drawn from that size's piece
// starts or at random.
func FuzzBestTimeFor(f *testing.F) {
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
		pp := mustPreprocess(t, r)
		k := 1 + int(pick)%n
		loads := lookupLoads(rng, pp, k, 2)
		load := loads[int(pick/64)%len(loads)]
		tv, e, ok := pp.bestTimeFor(k, load)
		if pp.risesAt(k) {
			checkTransition(t, "fuzz", pp, k, load, nil, tv, e, ok)
			return
		}
		wt, we, wok := pp.bestTimeForNested(k, load)
		if ok != wok || e != we || math.Float64bits(tv) != math.Float64bits(wt) {
			t.Fatalf("k %d load %v: bestTimeFor = (%v, %d, %v), nested (%v, %d, %v)", k, load, tv, e, ok, wt, we, wok)
		}
	})
}

// BenchmarkLeafSweep times a k sweep on one 512-machine leaf at five
// loads: a lookup for every k ≥ ⌈load⌉, with the piece-first search
// beside the event-grid oracle it replaced, and clampedSelect itself —
// under the cooling leverage of a pod in a 128-pod room, where the
// cooling floor stops the sweep after about one k — including the
// winner's front set.
func BenchmarkLeafSweep(b *testing.B) {
	const n = 512
	p := hierProfile(n)
	pp := mustPreprocess(b, p.Reduce())
	loads := []float64{0.1 * n, 0.3 * n, 0.5 * n, 0.7 * n, 0.9 * n}
	sweep := func(b *testing.B, lookup func(k int, load float64) (float64, int, bool)) {
		for i := 0; i < b.N; i++ {
			for _, load := range loads {
				for k := int(math.Ceil(load)); k <= n; k++ {
					lookup(k, load)
				}
			}
		}
	}
	b.Run("piece-first", func(b *testing.B) { sweep(b, pp.bestTimeFor) })
	b.Run("nested", func(b *testing.B) { sweep(b, pp.bestTimeForNested) })
	b.Run("clamped", func(b *testing.B) {
		bounds := p.bounds(1.0 / 128)
		for i := 0; i < b.N; i++ {
			for _, load := range loads {
				if k, e, _ := clampedSelect(pp, load, bounds); k > 0 {
					pp.frontSet(e, k)
				}
			}
		}
	})
}
