package core

import (
	"math"

	"coolopt/internal/mathx"
)

// This file holds the kinetic tournament behind the union refinement
// (planTree.refineUnionBlocked). Paper §III-B views the room as particles
// x_i(t) = A_i − t·B_i whose best k-subset at a time t is the top-k
// coordinates (Eq. 26). Each exchange move of the refinement needs only
// two of them at the room's current t: the top outsider and the bottom
// insider. A winner tree over the lines answers both in far less than the
// O(n) scan that used to find them:
//
//   - Every internal node keeps the winner of its subtree and an interval
//     [lo, hi] of t on which that winner is certain. The interval is the
//     node's own certificate (where its children's winners cannot trade
//     places) intersected with its children's intervals, so a node valid
//     at t implies its whole subtree is valid at t.
//   - Moving to a new t re-evaluates only the nodes whose interval
//     excludes it (refresh), and a membership change re-evaluates one
//     root path (fix). Building costs O(n); a move costs O(changed nodes)
//     plus O(lg n) per membership change.
//
// The winner of a node is decided by the scan's own float expression
// A − t*B with strict comparisons and the lower ID winning ties (the left
// subtree holds the lower IDs), so the root is exactly the scan's
// argmax/argmin whenever the tree is valid at t. Certificates are
// conservative: a node trusts its winner only while t keeps the two lines
// farther apart than the rounding of A − t*B can reach, and a comparison
// too close to call is certified for that exact t alone.

// Certificate slack. One multiply and one subtract leave the computed
// A − t*B within about 3 ulps of |A| + t·|B| of the exact line, so a gap
// of certRel (512 ulps) of |A_w| + |A_l| + t·(|B_w| + |B_l|) cannot be
// closed by rounding, with ample room left for the rounding of the
// certificate arithmetic itself. certShrink pulls computed endpoints
// inward, certAbs covers subnormal products, and certLimit keeps t·B far
// from overflow.
const (
	certRel    = 0x1p-44
	certShrink = 0x1p-40
	certAbs    = 0x1p-1000
	certLimit  = 0x1p400
)

// tourNode is one internal node of a lineTournament.
type tourNode struct {
	lo, hi float64 // t-interval on which win is certain
	win    int32   // winning machine, −1 for a subtree with no present leaf
}

// lineTournament is a kinetic winner tree over the lines of the present
// machines: the top line (max) or the bottom line (min) at a time t.
// Leaves are machines in ID order; internal nodes live in heap order at
// nodes[1:size]. The caller owns present and calls fix after changing it.
type lineTournament struct {
	pairs   []Pair
	present []bool
	top     bool // a max tree (top line) rather than a min tree
	size    int  // leaf slots, a power of two ≥ len(pairs)
	nodes   []tourNode
}

// newLineTournament builds the tree over the present machines, valid at
// t. Its nodes reuse buf when it is large enough; the build overwrites
// every node, so buf needs no clearing.
func newLineTournament(pairs []Pair, present []bool, top bool, t float64, buf []tourNode) *lineTournament {
	size := 1
	for size < len(pairs) {
		size *= 2
	}
	if cap(buf) < size {
		buf = make([]tourNode, size)
	}
	tr := &lineTournament{pairs: pairs, present: present, top: top, size: size, nodes: buf[:size]}
	for j := size - 1; j >= 1; j-- {
		tr.eval(j, t)
	}
	return tr
}

// best returns the winning machine at t, −1 when no machine is present.
// Afterwards every node is valid at t, which fix relies on.
func (tr *lineTournament) best(t float64) int {
	if tr.size == 1 {
		return int(tr.winner(1))
	}
	tr.refresh(1, t)
	return int(tr.nodes[1].win)
}

// fix re-evaluates the root path of machine i after its presence changed.
// The tree must be valid at t (a best(t) call since the last move).
func (tr *lineTournament) fix(i int, t float64) {
	for j := (tr.size + i) / 2; j >= 1; j /= 2 {
		tr.eval(j, t)
	}
}

// refresh re-evaluates, bottom-up, every node under j whose interval
// excludes t. A valid node's subtree is valid, so the walk stops there.
func (tr *lineTournament) refresh(j int, t float64) {
	nd := &tr.nodes[j]
	if nd.lo <= t && t <= nd.hi {
		return
	}
	if l := 2 * j; l < tr.size {
		tr.refresh(l, t)
		tr.refresh(l+1, t)
	}
	tr.eval(j, t)
}

// winner returns node j's winner; leaves are read from present.
func (tr *lineTournament) winner(j int) int32 {
	if j < tr.size {
		return tr.nodes[j].win
	}
	if i := j - tr.size; i < len(tr.pairs) && tr.present[i] {
		return int32(i)
	}
	return -1
}

// eval recomputes node j at t from its children, which must be valid at
// t. The right child wins only when its line is strictly ahead, so ties
// go to the lower ID exactly as in an ascending scan.
func (tr *lineTournament) eval(j int, t float64) {
	l, r := 2*j, 2*j+1
	wl, wr := tr.winner(l), tr.winner(r)
	lo, hi := math.Inf(-1), math.Inf(1)
	if l < tr.size {
		lo, hi = max(tr.nodes[l].lo, tr.nodes[r].lo), min(tr.nodes[l].hi, tr.nodes[r].hi)
	}
	win := wl
	switch {
	case wl < 0:
		win = wr
	case wr >= 0:
		pl, pr := tr.pairs[wl], tr.pairs[wr]
		xl := pl.A - t*pl.B
		xr := pr.A - t*pr.B
		lose := wr
		if tr.top && xr > xl || !tr.top && xr < xl {
			win, lose = wr, wl
		}
		clo, chi := tr.certify(win, lose, t)
		lo, hi = max(lo, clo), min(hi, chi)
	}
	tr.nodes[j] = tourNode{lo: lo, hi: hi, win: win}
}

// certify returns an interval containing t on which machine w's line
// stays ahead of machine l's (above for a max tree, below for a min
// tree) by more than the rounding of A − t*B can reach, so the computed
// comparison cannot flip anywhere inside it. Identical lines tie at every
// t and the tie-break never changes. Where the lines are too close to
// call at t, the interval is [t, t]: the comparison just made holds for
// that exact t and no other.
func (tr *lineTournament) certify(w, l int32, t float64) (lo, hi float64) {
	pw, pl := tr.pairs[w], tr.pairs[l]
	if mathx.Same(pw.A, pl.A) && mathx.Same(pw.B, pl.B) {
		return math.Inf(-1), math.Inf(1)
	}
	sA := math.Abs(pw.A) + math.Abs(pl.A)
	sB := math.Abs(pw.B) + math.Abs(pl.B)
	if !(t >= 0 && t <= certLimit && sA <= certLimit && sB <= certLimit) {
		return t, t
	}
	sign := 1.0
	if !tr.top {
		sign = -1
	}
	// w leads by sign·((A_w − A_l) − t·(B_w − B_l)); with the slack folded
	// in, the lead is certain exactly where alpha − t·beta > 0 (t ≥ 0).
	alpha := sign*(pw.A-pl.A) - (certRel*sA + certAbs)
	beta := sign*(pw.B-pl.B) + certRel*sB
	lo, hi = 0, certLimit
	switch {
	case beta > 0: // the lead shrinks as t grows: certain below the root
		hi = min(hi, alpha/beta*(1-certShrink)-certAbs)
	case beta < 0: // the lead grows with t: certain above the root
		lo = max(lo, alpha/beta*(1+certShrink)+certAbs)
	case !(alpha > 0):
		return t, t
	}
	if !(lo <= t && t <= hi) {
		return t, t
	}
	return lo, hi
}
