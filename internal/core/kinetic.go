package core

import (
	"cmp"
	"coolopt/internal/mathx"
	"math"
	"runtime"
	"slices"
	"sync"
)

// This file is the construction side of the compressed Preprocessed
// structure: pairwise passing-event generation, and the kinetic sweep
// that maintains the particle order incrementally across events while
// recording, for every subset size k, the linear pieces of the maximum
// k-subset coordinate sum S_k(t).
//
// The sweep is organized in independent event blocks so it parallelizes:
// each worker seeds its block with one full sort at the block's first
// interval midpoint (the ground-truth order there), then walks its events
// applying local repair sorts. Blocks are stitched back in event order,
// so the output is deterministic regardless of scheduling.

// crossing records that particles p and q pass each other at time t.
type crossing struct {
	t    float64
	p, q int32
}

// segPiece is one linear piece of S_k: from event interval `event`
// onward (until the next piece), S_k(t) = a − b·t.
type segPiece struct {
	event int32
	a, b  float64
}

// sweepWorkers resolves the worker-count option.
func sweepWorkers(w int) int {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// collectEvents generates every positive pairwise passing time
// t_pq = (a_q − a_p)/(b_q − b_p) (Algorithm 1, lines 1–9), sorts them,
// and groups simultaneous crossings. It returns the distinct event times
// (starting with 0), the time-sorted crossing records, and bucketEnd,
// where the crossings of event e>0 are crossings[bucketEnd[e-1]:bucketEnd[e]]
// (bucketEnd[0] = 0). Only t > 0 is kept, which also drops NaN: that
// precondition is what lets sortCrossings order the times by their bits.
func collectEvents(pairs []Pair, workers int) (events []float64, crossings []crossing, bucketEnd []int) {
	n := len(pairs)
	workers = sweepWorkers(workers)
	if workers > n {
		workers = n
	}

	// Generate in parallel over contiguous row ranges of p, balanced by
	// pair count (row p contributes n−1−p pairs).
	chunks := make([][2]int, 0, workers)
	target := n * (n - 1) / 2 / workers
	lo, acc := 0, 0
	for p := 0; p < n; p++ {
		acc += n - 1 - p
		if acc >= target && len(chunks) < workers-1 {
			chunks = append(chunks, [2]int{lo, p + 1})
			lo, acc = p+1, 0
		}
	}
	chunks = append(chunks, [2]int{lo, n})

	// Every worker writes into its own row range's region of one slice
	// sized for all n(n−1)/2 pairs, and the same slice is then the radix
	// sort's second buffer: a build holds at most two crossing copies.
	all := make([]crossing, n*(n-1)/2)
	parts := make([][]crossing, len(chunks))
	var wg sync.WaitGroup
	for c, ch := range chunks {
		// Rows before ch[0] hold ch[0]·n − ch[0](ch[0]+1)/2 pairs.
		parts[c] = all[ch[0]*n-ch[0]*(ch[0]+1)/2:][:0]
		wg.Add(1)
		go func(c, pLo, pHi int) {
			defer wg.Done()
			out := parts[c]
			for p := pLo; p < pHi; p++ {
				ap, bp := pairs[p].A, pairs[p].B
				for q := p + 1; q < n; q++ {
					db := pairs[q].B - bp
					if db == 0 {
						continue // parallel particles never pass
					}
					t := (pairs[q].A - ap) / db
					if t > 0 {
						out = append(out, crossing{t: t, p: int32(p), q: int32(q)})
					}
				}
			}
			parts[c] = out
		}(c, ch[0], ch[1])
	}
	wg.Wait()

	crossings = sortCrossings(parts, all)
	events, bucketEnd = groupCrossings(crossings)
	return events, crossings, bucketEnd
}

// Radix-sort parameters for sortCrossings: radixBits-wide digits cover
// the 63 bits a positive float64 can set (its sign bit is clear), and
// inputs of at most radixSmall crossings are insertion-sorted instead.
const (
	radixBits   = 11
	radixDigits = (63 + radixBits - 1) / radixBits
	radixSmall  = 256
)

// sortCrossings returns the crossings of parts, concatenated in order and
// stably sorted by time, in a new slice of exactly their total length.
// Every time must satisfy t > 0 (so none is NaN): a positive float64's
// IEEE-754 bit pattern, read as a uint64, orders exactly as its value,
// +Inf included, so a least-significant-digit radix sort on
// math.Float64bits(t) yields the time sequence a comparison sort yields,
// and equal times keep their input order. One histogram pass counts every
// digit; a digit shared by all keys skips its scatter pass. spare, at
// least as long as the total, is the scatter passes' second buffer. It
// may alias parts: nothing is written to spare before every part has
// been read.
func sortCrossings(parts [][]crossing, spare []crossing) []crossing {
	total := 0
	var key0 uint64
	for _, part := range parts {
		if total == 0 && len(part) > 0 {
			key0 = math.Float64bits(part[0].t)
		}
		total += len(part)
	}
	out := make([]crossing, total)
	if total <= radixSmall {
		i := 0
		for _, part := range parts {
			i += copy(out[i:], part)
		}
		insertionSortCrossings(out)
		return out
	}

	var counts [radixDigits][1 << radixBits]int
	for _, part := range parts {
		for _, c := range part {
			k := math.Float64bits(c.t)
			for d := range counts {
				counts[d][k>>(d*radixBits)&(1<<radixBits-1)]++
			}
		}
	}
	var passes [radixDigits]int
	m := 0
	for d := range counts {
		if counts[d][key0>>(d*radixBits)&(1<<radixBits-1)] != total {
			passes[m] = d
			m++
		}
	}

	// The last pass must land in out. With an odd pass count the first
	// pass scatters straight from parts into out; with an even one the
	// parts are first concatenated into out. src stays nil until then.
	var src []crossing
	dst, other := out, spare[:total]
	if m%2 == 0 {
		i := 0
		for _, part := range parts {
			i += copy(out[i:], part)
		}
		src, dst, other = out, other, out
	}
	for _, d := range passes[:m] {
		offs := &counts[d]
		at := 0
		for b, c := range offs {
			offs[b] = at
			at += c
		}
		if src == nil {
			for _, part := range parts {
				scatterCrossings(dst, part, offs, uint(d*radixBits))
			}
		} else {
			scatterCrossings(dst, src, offs, uint(d*radixBits))
		}
		src, dst, other = dst, other, dst
	}
	return out
}

// scatterCrossings moves each crossing of src to dst at its digit's next
// offset, advancing that offset: one stable counting-sort pass.
func scatterCrossings(dst, src []crossing, offs *[1 << radixBits]int, shift uint) {
	for _, c := range src {
		b := math.Float64bits(c.t) >> shift & (1<<radixBits - 1)
		dst[offs[b]] = c
		offs[b]++
	}
}

// insertionSortCrossings stably sorts a short crossing list by time.
func insertionSortCrossings(a []crossing) {
	for i := 1; i < len(a); i++ {
		c := a[i]
		j := i
		for j > 0 && c.t < a[j-1].t {
			a[j] = a[j-1]
			j--
		}
		a[j] = c
	}
}

// groupCrossings buckets a time-sorted crossing list into events: crossings
// whose times are indistinguishable from the bucket's first time
// (mathx.Same) share one event. The grouping depends only on the sorted
// time sequence — never on the order of equal-time entries — which is what
// lets sortCrossings' radix sort stand in for a comparison sort, and the
// incremental patch path (patch.go) splice a merged list, and still
// reproduce the same tables bit for bit.
func groupCrossings(crossings []crossing) (events []float64, bucketEnd []int) {
	events = make([]float64, 1, len(crossings)+1)
	bucketEnd = make([]int, 1, len(crossings)+1)
	for i := 0; i < len(crossings); {
		t := crossings[i].t
		j := i + 1
		for j < len(crossings) && mathx.Same(crossings[j].t, t) {
			j++
		}
		events = append(events, t)
		bucketEnd = append(bucketEnd, j)
		i = j
	}
	return events, bucketEnd
}

// buildSegments runs the kinetic sweep over all events and assembles the
// per-k piece arena. Event blocks are processed by a bounded worker pool
// and stitched in event order, so the result does not depend on
// scheduling.
func (pp *Preprocessed) buildSegments(crossings []crossing, bucketEnd []int, workers int) {
	n := len(pp.reduced.Pairs)
	pairs := pp.reduced.Pairs
	nEvents := len(pp.events) - 1 // events to sweep (event 0 is the initial order)

	// The initial pieces: prefix sums of the order on interval 0.
	order0 := orderAt(pairs, pp.sampleTime(0))
	prefA0 := make([]float64, n+1)
	prefB0 := make([]float64, n+1)
	for k := 1; k <= n; k++ {
		i := order0[k-1]
		prefA0[k] = prefA0[k-1] + pairs[i].A
		prefB0[k] = prefB0[k-1] + pairs[i].B
	}

	// Split the events into contiguous blocks, one per worker, each at
	// least minBlockEvents long so the per-block O(n lg n) seeding sort
	// stays amortized.
	const minBlockEvents = 256
	workers = sweepWorkers(workers)
	numBlocks := workers
	if mx := (nEvents + minBlockEvents - 1) / minBlockEvents; numBlocks > mx {
		numBlocks = mx
	}
	if numBlocks < 1 {
		numBlocks = 1
	}
	blockOut := make([][][]segPiece, numBlocks)
	var wg sync.WaitGroup
	for blk := 0; blk < numBlocks; blk++ {
		lo := 1 + blk*nEvents/numBlocks
		hi := 1 + (blk+1)*nEvents/numBlocks
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(blk, lo, hi int) {
			defer wg.Done()
			blockOut[blk] = sweepBlock(pairs, pp.events, crossings, bucketEnd, lo, hi)
		}(blk, lo, hi)
	}
	wg.Wait()

	// Stitch: initial piece plus the block outputs in event order,
	// dropping pieces whose coefficients did not actually change.
	counts := make([]int, n)
	for k := 0; k < n; k++ {
		counts[k] = 1
		for _, out := range blockOut {
			if out != nil {
				counts[k] += len(out[k])
			}
		}
	}
	total := 0
	pp.segOff = make([]int, n+1)
	for k := 0; k < n; k++ {
		pp.segOff[k] = total
		total += counts[k]
	}
	pp.segOff[n] = total
	pp.segEvent = make([]int32, 0, total)
	pp.segA = make([]float64, 0, total)
	pp.segB = make([]float64, 0, total)
	for k := 0; k < n; k++ {
		pp.segOff[k] = len(pp.segEvent)
		pp.segEvent = append(pp.segEvent, 0)
		pp.segA = append(pp.segA, prefA0[k+1])
		pp.segB = append(pp.segB, prefB0[k+1])
		for _, out := range blockOut {
			if out == nil {
				continue
			}
			for _, piece := range out[k] {
				last := len(pp.segA) - 1
				if mathx.Same(piece.a, pp.segA[last]) && mathx.Same(piece.b, pp.segB[last]) {
					continue
				}
				pp.segEvent = append(pp.segEvent, piece.event)
				pp.segA = append(pp.segA, piece.a)
				pp.segB = append(pp.segB, piece.b)
			}
		}
	}
	pp.segOff[n] = len(pp.segEvent)
}

// sweepBlock processes events [lo, hi): it seeds the particle order with
// a full sort at interval lo−1's midpoint, then for each event repairs
// the order locally around the crossing particles and records the
// subset-size boundaries whose prefix sums changed.
func sweepBlock(pairs []Pair, events []float64, crossings []crossing, bucketEnd []int, lo, hi int) [][]segPiece {
	n := len(pairs)
	out := make([][]segPiece, n)

	order := orderAt(pairs, sampleTimeOf(events, lo-1))
	pos := make([]int, n)
	for i, id := range order {
		pos[id] = i
	}
	prefA := make([]float64, n+1)
	prefB := make([]float64, n+1)
	for k := 1; k <= n; k++ {
		i := order[k-1]
		prefA[k] = prefA[k-1] + pairs[i].A
		prefB[k] = prefB[k-1] + pairs[i].B
	}

	type span struct{ s, t int }
	var spans []span
	for e := lo; e < hi; e++ {
		bucket := crossings[bucketEnd[e-1]:bucketEnd[e]]
		sampleT := sampleTimeOf(events, e)

		// Positions touched by this event's crossings. A crossing's two
		// particles are adjacent in exact arithmetic, but simultaneous
		// multi-way crossings (and near-ties split across float-distinct
		// event times) can leave them further apart — covering the whole
		// position range and merging overlapping ranges is the repair
		// pass that keeps the sweep robust where the paper's plain
		// curOrder.swap(p, q) breaks.
		spans = spans[:0]
		for _, c := range bucket {
			s, t := pos[c.p], pos[c.q]
			if s > t {
				s, t = t, s
			}
			spans = append(spans, span{s, t})
		}
		if len(spans) > 1 {
			slices.SortFunc(spans, func(x, y span) int { return cmp.Compare(x.s, y.s) })
		}

		for si := 0; si < len(spans); {
			s, t := spans[si].s, spans[si].t
			si++
			for si < len(spans) && spans[si].s <= t {
				if spans[si].t > t {
					t = spans[si].t
				}
				si++
			}

			// Re-sort the block at this interval's midpoint; if the
			// sorted block is out of order with a neighbour (possible
			// only under floating-point near-ties), widen and repeat.
			// particleLess is a strict total order, so any sort gives the
			// same block: a two-element block needs one comparison and at
			// most a swap, and slices.SortFunc allocates nothing per event
			// for the rest.
			for {
				if seg := order[s : t+1]; len(seg) == 2 {
					if particleLess(pairs, seg[1], seg[0], sampleT) {
						seg[0], seg[1] = seg[1], seg[0]
					}
				} else {
					slices.SortFunc(seg, func(x, y int) int {
						switch {
						case particleLess(pairs, x, y, sampleT):
							return -1
						case particleLess(pairs, y, x, sampleT):
							return 1
						}
						return 0
					})
				}
				grew := false
				if s > 0 && particleLess(pairs, order[s], order[s-1], sampleT) {
					s--
					grew = true
				}
				if t+1 < n && particleLess(pairs, order[t+1], order[t], sampleT) {
					t++
					grew = true
				}
				if !grew {
					break
				}
			}
			for i := s; i <= t; i++ {
				pos[order[i]] = i
			}

			// Only boundaries strictly inside the block can change:
			// the k-sets for k ≤ s and k > t are untouched.
			for k := s + 1; k <= t; k++ {
				id := order[k-1]
				newA := prefA[k-1] + pairs[id].A
				newB := prefB[k-1] + pairs[id].B
				if mathx.Same(newA, prefA[k]) && mathx.Same(newB, prefB[k]) {
					continue
				}
				prefA[k], prefB[k] = newA, newB
				ks := out[k-1]
				if m := len(ks); m > 0 && ks[m-1].event == int32(e) {
					ks[m-1].a, ks[m-1].b = newA, newB
				} else {
					out[k-1] = append(ks, segPiece{event: int32(e), a: newA, b: newB})
				}
			}
		}
	}
	return out
}
