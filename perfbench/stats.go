package main

import (
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs, or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first quartile, the median and the third
// quartile of xs exactly as Python's statistics.quantiles(xs, n=4)
// computes them (the default "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// tailSpec fixes a workload's tail: one percentile, the same in every
// run, so two runs (or two versions of the code) always report the same
// statistic. The timed loops run until they hold need() samples, past
// --seconds if the code is slow, so the percentile never lacks support.
type tailSpec struct {
	pct     float64 // nearest-rank percentile
	blocked bool    // the median of the percentiles of consecutive blocks
}

// need is the sample count the tail asks for: ten samples beyond the
// percentile (in each of four blocks when blocked). A median asks for one.
func (t tailSpec) need() int {
	if t.pct <= 50 {
		return 1
	}
	if t.blocked {
		return 4 * blockSize(t.pct)
	}
	return blockSize(t.pct)
}

// tail returns t's percentile of xs and the number of blocks it was taken
// over. A blocked tail splits xs into consecutive blocks of the smallest
// size with ten samples beyond the percentile and returns the median of
// the blocks' percentiles, so one disturbed stretch of a run moves it
// little; it needs four such blocks and otherwise takes xs whole.
func tail(xs []float64, t tailSpec) (value float64, blocks int) {
	if len(xs) == 0 {
		return 0, 0
	}
	if b := blockSize(t.pct); t.blocked && len(xs) >= 4*b {
		var vals []float64
		for lo := 0; lo+b <= len(xs); lo += b {
			vals = append(vals, sorted(xs[lo : lo+b])[rankIndex(b, t.pct)])
		}
		return median(vals), len(vals)
	}
	return sorted(xs)[rankIndex(len(xs), t.pct)], 1
}

// rankIndex is the nearest-rank index of percentile p among n samples.
func rankIndex(n int, p float64) int {
	idx := int(float64(n)*p/100+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	return idx
}

// blockSize is the smallest sample count with ten samples beyond
// percentile p.
func blockSize(p float64) int {
	n := 11
	for n-1-rankIndex(n, p) < 10 {
		n++
	}
	return n
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
