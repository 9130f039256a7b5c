package core

import (
	"fmt"
	"strings"
	"testing"

	"coolopt/internal/mathx"
)

// TestKineticSimultaneousCrossing builds the worst case for naive kinetic
// swapping: every particle passes through the same point (1, 5), so all
// C(n,2) crossings collapse into one simultaneous event and the order
// reverses wholesale. The repair pass must handle it like the full sort.
func TestKineticSimultaneousCrossing(t *testing.T) {
	n := 9
	pairs := make([]Pair, n)
	for i := range pairs {
		b := float64(i + 1)
		pairs[i] = Pair{A: 5 + b, B: b} // x_i(1) = 5 for every i
	}
	red := Reduced{Pairs: pairs, W2: 0.5, Rho: 1}
	kin, err := Preprocess(red)
	if err != nil {
		t.Fatal(err)
	}
	if kin.Events() != 2 { // t = 0 and the single pile-up at t = 1
		t.Fatalf("events = %d, want 2", kin.Events())
	}
	den, err := PreprocessDense(red)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		ko, _ := kin.OrderAtEvent(e)
		do, _ := den.OrderAtEvent(e)
		for i := range ko {
			if ko[i] != do[i] {
				t.Fatalf("order at event %d: %v vs dense %v", e, ko, do)
			}
		}
	}
	for _, load := range []float64{0.5, 3, 6, 20} {
		kq, kerr := kin.QueryExact(load, 1)
		dq, derr := den.QueryExact(load, 1)
		if (kerr == nil) != (derr == nil) {
			t.Fatalf("load %v: error mismatch %v vs %v", load, kerr, derr)
		}
		if kerr == nil && (kq.Power != dq.Power || kq.T != dq.T) {
			t.Fatalf("load %v: (%v, %v) vs dense (%v, %v)", load, kq.Power, kq.T, dq.Power, dq.T)
		}
	}
}

// TestKineticIdenticalPairs: identical machines never pass each other, so
// the structure degenerates to a single event interval.
func TestKineticIdenticalPairs(t *testing.T) {
	red := Reduced{Pairs: []Pair{{A: 2, B: 1}, {A: 2, B: 1}, {A: 2, B: 1}}, W2: 1, Rho: 1}
	kin, err := Preprocess(red)
	if err != nil {
		t.Fatal(err)
	}
	if kin.Events() != 1 {
		t.Fatalf("events = %d, want 1", kin.Events())
	}
	sel, err := kin.QueryExact(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Subset) != 2 { // 2 machines cover load 3 at t > 0... checked below
		// any k with k·2 ≥ 3 is feasible; the optimum depends on W2/Rho —
		// just require validity.
		if got, err := red.SubsetPower(sel.Subset, 3); err != nil || got != sel.Power {
			t.Fatalf("invalid selection %v (power %v, recomputed %v, err %v)", sel.Subset, sel.Power, got, err)
		}
	}
}

// TestKineticCapErrorMessage pins the documented cap error: it must name
// the O(n²) tables (not the dense form's O(n³)) and point at the option.
func TestKineticCapErrorMessage(t *testing.T) {
	big := Reduced{Pairs: make([]Pair, DefaultMaxMachines+1)}
	for i := range big.Pairs {
		big.Pairs[i] = Pair{A: 1, B: 1}
	}
	_, err := Preprocess(big)
	if err == nil {
		t.Fatal("oversized instance accepted")
	}
	msg := err.Error()
	if strings.Contains(msg, "n³") {
		t.Fatalf("cap error still claims O(n³) tables: %q", msg)
	}
	for _, want := range []string{"O(n²)", "WithMaxMachines"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("cap error %q missing %q", msg, want)
		}
	}
}

// TestPreprocessDatacenterScale is the acceptance check that the kinetic
// structure reaches n = 4096 — an order of magnitude past the seed's
// 512-machine cap — and still answers valid queries.
func TestPreprocessDatacenterScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second 4096-machine build")
	}
	rng := mathx.NewRand(42)
	n := DefaultMaxMachines
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{
			A: float64(1+rng.Intn(4096)) / 256.0,
			B: float64(1+rng.Intn(1024)) / 256.0,
		}
	}
	red := Reduced{Pairs: pairs, W2: 1, Rho: 2}
	kin, err := Preprocess(red)
	if err != nil {
		t.Fatal(err)
	}
	// O(n²) compression: the piece count must stay within the crossing
	// budget, far below the dense form's events × n statuses.
	if kin.Pieces() > kin.StatusCount()/8 {
		t.Fatalf("pieces = %d, not an asymptotic win over %d statuses", kin.Pieces(), kin.StatusCount())
	}
	for _, load := range []float64{1, 64, 512, 2048} {
		sel, err := kin.QueryExact(load, 1)
		if err != nil {
			t.Fatalf("QueryExact(%v): %v", load, err)
		}
		got, err := red.SubsetPower(sel.Subset, load)
		if err != nil {
			t.Fatal(err)
		}
		if got != sel.Power {
			t.Fatalf("QueryExact(%v): power %v, subset recomputes to %v", load, sel.Power, got)
		}
	}
}

// BenchmarkPreprocess times whole-room kinetic table builds — pair
// generation, crossing sort, sweep and arena layout — on hierProfile
// rooms at the default worker count. The n=4096 build takes a few
// seconds and ~1 GB of allocation.
func BenchmarkPreprocess(b *testing.B) {
	for _, n := range []int{512, 4096} {
		r := hierProfile(n).Reduce()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Preprocess(r, WithMaxMachines(n)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
