package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"coolopt/internal/mathx"
)

// checkSortCrossings runs sortCrossings the way collectEvents does — the
// input split into nParts runs laid out with gaps inside one buffer that
// doubles as the spare — and holds it to the comparison sort: the same
// time sequence bit for bit, the same multiset of (t, p, q) records, and
// equal times kept in input order.
func checkSortCrossings(t *testing.T, label string, in []crossing, nParts int) {
	t.Helper()
	const gap = 3
	buf := make([]crossing, len(in)+gap*nParts)
	parts := make([][]crossing, nParts)
	at := 0
	for i := range parts {
		lo, hi := i*len(in)/nParts, (i+1)*len(in)/nParts
		parts[i] = buf[at : at+hi-lo]
		copy(parts[i], in[lo:hi])
		at += hi - lo + gap
	}
	got := sortCrossings(parts, buf)

	want := slices.Clone(in)
	slices.SortFunc(want, func(a, b crossing) int { return cmp.Compare(a.t, b.t) })
	if len(got) != len(want) {
		t.Fatalf("%s: %d crossings out, %d in", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].t) != math.Float64bits(want[i].t) {
			t.Fatalf("%s: t[%d] = %v (%#x), comparison sort has %v (%#x)",
				label, i, got[i].t, math.Float64bits(got[i].t), want[i].t, math.Float64bits(want[i].t))
		}
	}

	byRecord := func(a, b crossing) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.p, b.p), cmp.Compare(a.q, b.q))
	}
	gotSet, wantSet := slices.Clone(got), slices.Clone(in)
	slices.SortFunc(gotSet, byRecord)
	slices.SortFunc(wantSet, byRecord)
	if !slices.Equal(gotSet, wantSet) {
		t.Fatalf("%s: output is not a permutation of the input", label)
	}

	stable := slices.Clone(in)
	slices.SortStableFunc(stable, func(a, b crossing) int { return cmp.Compare(a.t, b.t) })
	if !slices.Equal(got, stable) {
		t.Fatalf("%s: equal times left input order", label)
	}
}

// crossingsOf tags each time with its input index in p, so a stability
// failure shows, and a pseudo-random q.
func crossingsOf(rng *mathx.Rand, ts []float64) []crossing {
	out := make([]crossing, len(ts))
	for i, t := range ts {
		out[i] = crossing{t: t, p: int32(i), q: int32(rng.Intn(1 << 20))}
	}
	return out
}

// shuffleCrossings permutes cs uniformly at random (Fisher–Yates).
func shuffleCrossings(rng *mathx.Rand, cs []crossing) {
	for i := len(cs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		cs[i], cs[j] = cs[j], cs[i]
	}
}

// positiveBits draws a positive float64 bit pattern — subnormals,
// MaxFloat64 and +Inf all possible — that is neither zero nor NaN.
func positiveBits(rng *mathx.Rand) float64 {
	for {
		bits := uint64(rng.Intn(1<<31))<<32 | uint64(rng.Intn(1<<32))
		if t := math.Float64frombits(bits); t > 0 {
			return t
		}
	}
}

// sortShapes names the time distributions the sort tests draw from.
var sortShapes = []string{"random", "ties", "ulp", "extremes", "low-byte", "low-bytes"}

// sortTimes draws n positive times of the given shape (an index into
// sortShapes).
func sortTimes(rng *mathx.Rand, n, shape int) []float64 {
	ts := make([]float64, n)
	base := rng.Uniform(1e-3, 1e3)
	for i := range ts {
		switch shape % len(sortShapes) {
		case 0: // any positive bit pattern
			ts[i] = positiveBits(rng)
		case 1: // a handful of distinct times, each repeated many times
			ts[i] = float64(1 + rng.Intn(4))
		case 2: // 1-ulp neighbours of one time
			ts[i] = math.Float64frombits(math.Float64bits(base) + uint64(rng.Intn(5)) - 2)
		case 3: // subnormals, MaxFloat64, +Inf and their neighbours
			pool := []float64{
				math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
				math.Float64frombits(1<<52 - 1), math.Float64frombits(1 << 52),
				math.Nextafter(math.MaxFloat64, 0), math.MaxFloat64, math.Inf(1), base,
			}
			ts[i] = pool[rng.Intn(len(pool))]
		case 4: // only the lowest digit varies: a single scatter pass
			ts[i] = math.Float64frombits(math.Float64bits(base)&^(1<<radixBits-1) | uint64(rng.Intn(1<<radixBits)))
		case 5: // only the two lowest digits vary: an even pass count
			ts[i] = math.Float64frombits(math.Float64bits(base)&^(1<<(2*radixBits)-1) | uint64(rng.Intn(1<<(2*radixBits))))
		}
	}
	return ts
}

// TestSortCrossingsMatchesComparisonSort holds the radix sort to
// slices.SortFunc with cmp.Compare on every time shape, at lengths on both
// sides of the insertion-sort cutoff, split into one to four runs.
func TestSortCrossingsMatchesComparisonSort(t *testing.T) {
	rng := mathx.NewRand(19)
	lengths := []int{0, 1, 2, radixSmall - 1, radixSmall, radixSmall + 1, 2 * radixSmall, 1000, 5000}
	for shape, name := range sortShapes {
		for _, n := range lengths {
			for nParts := 1; nParts <= 4; nParts++ {
				in := crossingsOf(rng, sortTimes(rng, n, shape))
				checkSortCrossings(t, fmt.Sprintf("%s/n=%d/parts=%d", name, n, nParts), in, nParts)
			}
		}
	}

	// All times equal: every digit is shared, so no pass runs.
	same := make([]float64, 3*radixSmall)
	for i := range same {
		same[i] = 0.75
	}
	checkSortCrossings(t, "all-equal", crossingsOf(rng, same), 2)

	// The crossings of a real room, as collectEvents generates them.
	r := hierProfile(256).Reduce()
	_, crossings, _ := collectEvents(r.Pairs, 3)
	shuffleCrossings(rng, crossings)
	checkSortCrossings(t, "hierProfile(256)", crossings, 3)
}

// FuzzSortCrossings fuzzes the radix sort against the comparison sort:
// random lengths up to eight times the insertion-sort cutoff,
// every time shape of the table test, and one to eight input runs.
func FuzzSortCrossings(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(0), uint8(1))
	f.Add(int64(2), uint16(300), uint8(1), uint8(3))
	f.Add(int64(3), uint16(700), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, shape, nParts uint8) {
		rng := mathx.NewRand(seed)
		n := int(size) % (8 * radixSmall)
		in := crossingsOf(rng, sortTimes(rng, n, int(shape)))
		checkSortCrossings(t, "fuzz", in, 1+int(nParts%8))
	})
}

// BenchmarkSortCrossings sorts one 512-machine hierProfile leaf's
// crossings (the pod size of cold-large) with the radix sort and with the
// comparison sort it replaced.
func BenchmarkSortCrossings(b *testing.B) {
	r := hierProfile(512).Reduce()
	_, crossings, _ := collectEvents(r.Pairs, 1)
	shuffleCrossings(mathx.NewRand(1), crossings)
	work := make([]crossing, len(crossings))
	b.Run("radix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(work, crossings)
			sortCrossings([][]crossing{work}, work)
		}
	})
	b.Run("comparison", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(work, crossings)
			slices.SortFunc(work, func(a, b crossing) int { return cmp.Compare(a.t, b.t) })
		}
	})
}
