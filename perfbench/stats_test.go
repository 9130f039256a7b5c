package main

import (
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 1.75, 4.5, 7.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !close9(q1, c.q1) || !close9(q2, c.q2) || !close9(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestTailIsItsFixedPercentile(t *testing.T) {
	xs := make([]float64, 0, 2000)
	for i := 1; i <= 2000; i++ {
		xs = append(xs, float64(i))
	}
	cases := []struct {
		spec tailSpec
		need int
	}{
		{tailSpec{pct: 50}, 1},
		{tailSpec{pct: 75}, 39},
		{tailSpec{pct: 99}, blockSize(99)},
		{tailSpec{pct: 99, blocked: true}, 4 * blockSize(99)},
	}
	for _, c := range cases {
		if got := c.spec.need(); got != c.need {
			t.Errorf("%+v needs %d samples, want %d", c.spec, got, c.need)
		}
		if n := blockSize(c.spec.pct); n-1-rankIndex(n, c.spec.pct) != 10 {
			t.Errorf("p%g of %d samples does not have ten beyond it", c.spec.pct, n)
		}
	}
	// The percentile does not follow the sample count.
	for _, n := range []int{12, 60, 300} {
		if v, blocks := tail(xs[:n], tailSpec{pct: 75}); !close9(v, float64(rankIndex(n, 75)+1)) || blocks != 1 {
			t.Errorf("p75 of %d samples = %v over %d blocks", n, v, blocks)
		}
	}
	// Four blocks or more: the median of the blocks' percentiles.
	b := blockSize(75)
	if v, blocks := tail(xs[:4*b], tailSpec{pct: 75, blocked: true}); blocks != 4 || v <= float64(b) {
		t.Errorf("blocked p75 = %v over %d blocks", v, blocks)
	}
	// Fewer than four blocks: the whole run.
	if _, blocks := tail(xs[:3*b], tailSpec{pct: 75, blocked: true}); blocks != 1 {
		t.Errorf("blocked p75 of three blocks' worth took %d blocks", blocks)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "core.plan", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.Select", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "core.SolveBounded", Start: 50, End: 80},
		{ID: 4, Name: "engine.Plan", Start: 200, End: 230},
	}}
	self := tr.selfTimes()
	// core: plan 100 − 70 covered (10..80) = 30, plus its children's 50 + 30.
	if self["core"] != 110 || self["engine"] != 30 {
		t.Fatalf("self times = %v", self)
	}
}
