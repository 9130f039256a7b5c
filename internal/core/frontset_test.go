package core

import (
	"fmt"
	"math"
	"testing"

	"coolopt/internal/mathx"
)

// smoothReduced mirrors the scaling-benchmark instance: deterministic
// per-machine jitter with no exact ties, the regime the datacenter-scale
// structure actually serves.
func smoothReduced(n int) Reduced {
	pairs := make([]Pair, n)
	for i := range pairs {
		h := float64(i) / float64(n-1)
		jitter := 0.05 * math.Sin(float64(i)*2.399963)
		beta := 0.46 * (1 + 0.1*h + jitter)
		gamma := 0.5 + 2.2*h - 10*jitter
		pairs[i] = Pair{
			A: (65 - beta*34 - gamma) / (beta * 52),
			B: 1.0 / beta,
		}
	}
	return Reduced{Pairs: pairs, W2: 34, Rho: 150 * 52, CoolFactor: 150, SetPointC: 31, W1: 52}
}

// checkFrontSetsIdentical compares the front-set selection against the
// full-sort rebuild for the given (event, k) query points.
func checkFrontSetsIdentical(t *testing.T, label string, pp *Preprocessed, events, ks []int) {
	t.Helper()
	for _, e := range events {
		for _, k := range ks {
			got := pp.frontSet(e, k)
			want := pp.frontSetRebuild(e, k)
			if len(got) != len(want) {
				t.Fatalf("%s: frontSet(e=%d, k=%d) = %v, want %v", label, e, k, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: frontSet(e=%d, k=%d) = %v, want %v", label, e, k, got, want)
				}
			}
		}
	}
}

// TestPersistentFrontSetMatchesRebuild is the front-set property test:
// the selection returns byte-identical subsets to the full-sort rebuild —
// on tie-heavy exact-grid instances at n = 64 (exhaustively) and 256, on
// the smooth scaling instance at n = 1024 (sampled), and exhaustively on
// grid rooms whose intercepts are nudged up one ulp at random, where the
// kinetic sweep's order can go stale across near-tie events.
func TestPersistentFrontSetMatchesRebuild(t *testing.T) {
	rng := mathx.NewRand(20260806)

	// Tie-heavy adversarial instances: duplicated speeds and whole pairs
	// force simultaneous crossings, the regime where incremental order
	// maintenance historically breaks.
	trials := 20
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		red := gridReduced(rng, 64)
		pp, err := Preprocess(red)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkFrontSetsIdentical(t, fmt.Sprintf("grid n=64 trial %d", trial), pp, allInts(0, pp.Events()), allInts(1, len(red.Pairs)+1))
	}

	nudged := 60
	if testing.Short() || raceEnabled {
		nudged = 15
	}
	nudgeRng := mathx.NewRand(3)
	for trial := 0; trial < nudged; trial++ {
		red := gridReduced(nudgeRng, 2+nudgeRng.Intn(63))
		for i := range red.Pairs {
			if nudgeRng.Intn(2) == 0 {
				red.Pairs[i].A = math.Nextafter(red.Pairs[i].A, math.Inf(1))
			}
		}
		pp := mustPreprocess(t, red)
		checkFrontSetsIdentical(t, fmt.Sprintf("nudged trial %d", trial), pp, allInts(0, pp.Events()), allInts(1, len(red.Pairs)+1))
	}

	for _, n := range []int{256, 1024} {
		if testing.Short() && n > 256 {
			break
		}
		var red Reduced
		if n == 256 {
			red = gridReduced(rng, n)
		} else {
			red = smoothReduced(n)
		}
		pp, err := Preprocess(red)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Sample: every k at a spread of events, every event boundary
		// region at a spread of ks, plus random probes.
		events := []int{0, 1, pp.Events() / 3, pp.Events() / 2, pp.Events() - 2, pp.Events() - 1}
		ks := make([]int, 0, n)
		for k := 1; k <= n; k++ {
			ks = append(ks, k)
		}
		checkFrontSetsIdentical(t, fmt.Sprintf("n=%d all-k", n), pp, events, ks)

		randEvents := make([]int, 40)
		randKs := make([]int, 8)
		for i := range randEvents {
			randEvents[i] = rng.Intn(pp.Events())
		}
		for i := range randKs {
			randKs[i] = 1 + rng.Intn(n)
		}
		checkFrontSetsIdentical(t, fmt.Sprintf("n=%d sampled", n), pp, randEvents, randKs)
	}
}

// allInts returns lo, lo+1, …, hi−1.
func allInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for v := lo; v < hi; v++ {
		out = append(out, v)
	}
	return out
}

// BenchmarkFrontSet times one front set at fixed random (e, k) on a
// 512-machine leaf and on a flat 4096-machine table: the selection beside
// the full-sort oracle.
func BenchmarkFrontSet(b *testing.B) {
	for _, tc := range []struct {
		name string
		red  func() Reduced
	}{
		{"leaf-n=512", func() Reduced { return hierProfile(512).Reduce() }},
		{"flat-n=4096", func() Reduced { return smoothReduced(4096) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			red := tc.red()
			pp := mustPreprocess(b, red)
			const queries = 64
			rng := mathx.NewRand(1)
			es, ks := make([]int, queries), make([]int, queries)
			for i := range es {
				es[i], ks[i] = rng.Intn(pp.Events()), 1+rng.Intn(len(red.Pairs))
			}
			run := func(b *testing.B, front func(e, k int) []int) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					q := i % queries
					front(es[q], ks[q])
				}
			}
			b.Run("select", func(b *testing.B) { run(b, pp.frontSet) })
			b.Run("rebuild", func(b *testing.B) { run(b, pp.frontSetRebuild) })
		})
	}
}
