package core

import "math"

// This file implements the pod-sharded form of the paper's consolidation
// machinery for rooms beyond the O(n²) whole-room tables. The planning
// bodies themselves live in unit.go — PodSnapshot is one topology of the
// recursive plannable-unit tree; this file owns construction and the
// room-level union refinement helpers.
//
// The room is partitioned into contiguous pods (the tree's leaves). A pod
// holds its machines' pairs and Eq. 21–22 aggregates and no kinetic
// tables, so a build is O(n). Queries compose hierarchically:
//
//  1. The recursive water-filling allocator (planTree.selectFor) splits
//     the room load L down the tree using the pod aggregates
//     A_j = Σ K_i and B_j = Σ α_i/β_i. Eq. 21–22 say the exact optimum
//     loads machine i at L_i = K_i − s·(α_i/β_i) for a common surplus
//     parameter s = (Σ K − L)/Σ(α/β); summed over a pod that is
//     L_j = A_j − s·B_j — so the exact split is itself a water-filling
//     over the pod aggregates, and the allocator recovers it (up to the
//     [0, n_j] capacity clamps) by bisecting on s. An interior node of a
//     deeper tree presents the same clamped curve summed over its
//     subtree, so the identical bisection runs at every level.
//
//  2. Each pod solves its own select(A_j, k_j, L_j) with leafSelect
//     (select.go): for each subset size k, Eq. 26's best time
//     t_k = max over |S| = k of (Σ_S a − L_j)/(Σ_S b) by Dinkelbach's
//     iteration, about one O(n_j) selection per k and one k per query.
//     The pod scores candidates with share-scaled cooling
//     leverage: linearizing the room t_S = (Σ a − L)/(Σ b) around pod j's
//     contribution gives ∂t/∂(pod j) ≈ share_j/B_j with
//     share_j = B_j/B_total, so the pod sees Rho_j = share_j·ρ and
//     CoolFactor_j = share_j·c·f_ac. Without the scaling every pod would
//     believe it owns the whole room's cooling reward and over-provision
//     machines by ~√p. Shares are room-level at every depth.
//
//  3. The per-pod subsets are unioned and the room's exact closed form
//     (SolveBounded, Eqs. 21–22 with box repair) runs once over the
//     union, so the load split and supply temperature are exact for the
//     chosen set. The optimality gap comes only from the subset choice —
//     a pod may keep a machine that a colder machine in another pod
//     should have displaced — and is bounded and measured rather than
//     compounded (DESIGN.md §7, §11).

// DefaultPodSize is the default machines-per-pod target when no
// calibration point overrides it: p = 16 pods at the whole-room cap of
// 4096 machines.
const DefaultPodSize = 256

// podConfig collects NewPodSnapshot's tunables.
type podConfig struct {
	podSize  int // target machines per pod; 0 = calibration/DefaultPodSize
	podCount int // explicit pod count; 0 = derive from podSize
	depth    int // tree depth; 0 = calibration (2 for modest rooms)
}

// PodOption configures NewPodSnapshot.
type PodOption func(*podConfig)

// WithPodSize sets the target machines per pod (values ≤ 0 pick the
// calibrated size for the room, DefaultPodSize when no point matches).
// The partition balances sizes within one machine.
func WithPodSize(m int) PodOption {
	return func(cfg *podConfig) { cfg.podSize = m }
}

// WithPodCount forces an explicit pod count, overriding WithPodSize.
// Values ≤ 0 keep the size-derived count.
func WithPodCount(p int) PodOption {
	return func(cfg *podConfig) { cfg.podCount = p }
}

// WithPodDepth sets the planner-tree depth: 2 is the classic one-level
// pod split, 3 groups the pods into ≈√p pods of pods, and so on. Values
// ≤ 0 pick the calibrated depth for the room size (2 for every room the
// committed curve considers shallow enough). Degenerate shapes (one pod,
// chains) collapse to the flat planner bit for bit.
func WithPodDepth(d int) PodOption {
	return func(cfg *podConfig) { cfg.depth = d }
}

// pod is one leaf of the planner tree: a contiguous ID range with its
// pairs, aggregates and share-scaled scoring bounds. Only the flat
// Snapshot's single leaf carries kinetic tables (pre); a pod leaf's is
// nil.
type pod struct {
	ids     []int // global machine IDs, ascending
	reduced Reduced
	pre     *Preprocessed
	sumA    float64 // A_j = Σ K_i over the pod
	sumB    float64 // B_j = Σ α_i/β_i over the pod
	share   float64 // B_j / B_total
	bounds  clampBounds
}

// PodSnapshot is the hierarchical analogue of Snapshot: an immutable,
// concurrently-queryable view of a machine room sharded into table-free
// pod leaves under a recursive planner tree (unit.go). It trades a
// bounded optimality gap for an O(n) build and O(n) state and an O(n)
// expected per-query cost — which is what lifts the whole-room
// DefaultMaxMachines cap. Depth 2 is the classic pod split; depth 3
// groups the pods into pods of pods for fleet-scale rooms.
type PodSnapshot struct {
	epoch uint64
	planTree
}

// NewPodSnapshot validates and deep-copies the profile, partitions it
// into pod leaves, and assembles the recursive planner tree over them.
// epoch tags the snapshot's generation exactly like NewSnapshot.
func NewPodSnapshot(p *Profile, epoch uint64, opts ...PodOption) (*PodSnapshot, error) {
	cfg := podConfig{}
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	frozen := *p
	frozen.Machines = append([]MachineProfile(nil), p.Machines...)

	n := frozen.Size()
	if cfg.podSize <= 0 {
		if cfg.podCount <= 0 {
			cfg.podSize = DefaultCalibration().PodSizeFor(n)
		} else {
			cfg.podSize = DefaultPodSize
		}
	}
	depth := cfg.depth
	if depth <= 0 {
		depth = DefaultCalibration().DepthFor(n)
	}
	if depth < 2 {
		depth = 2
	}
	count := cfg.podCount
	if count <= 0 {
		count = (n + cfg.podSize - 1) / cfg.podSize
	}
	if count < 1 {
		count = 1
	}
	if count > n {
		count = n
	}

	// Balanced contiguous partition: the first n mod count pods carry one
	// extra machine.
	parts := make([][]int, count)
	base, extra := n/count, n%count
	start := 0
	for j := range parts {
		size := base
		if j < extra {
			size++
		}
		parts[j] = make([]int, size)
		for i := range parts[j] {
			parts[j][i] = start + i
		}
		start += size
	}
	return assemblePods(epoch, &frozen, parts, depth), nil
}

// assemblePods freezes a pod snapshot of the validated profile p over the
// given partition (ascending contiguous ID ranges): the room's reduced
// instance, one leaf per part, and the depth-shaped tree over them.
// NewPodSnapshot and Patch both build through it, so a patch is a cold
// build over the receiver's partition, bit for bit.
func assemblePods(epoch uint64, p *Profile, parts [][]int, depth int) *PodSnapshot {
	ps := &PodSnapshot{epoch: epoch, planTree: planTree{profile: p, depth: depth}}
	ps.room = p.Reduce()
	for _, pr := range ps.room.Pairs {
		ps.totalB += pr.B
	}
	ps.pods = make([]*pod, len(parts))
	for j, ids := range parts {
		ps.pods[j] = makeLeaf(ps.room, p, ids, ps.totalB)
	}
	ps.root = buildUnitTree(ps.pods, 0, len(parts), depth)
	return ps
}

// Epoch returns the snapshot's generation tag.
func (ps *PodSnapshot) Epoch() uint64 { return ps.epoch }

// Size returns the number of machines.
func (ps *PodSnapshot) Size() int { return ps.profile.Size() }

// Pods returns the number of pod leaves.
func (ps *PodSnapshot) Pods() int { return len(ps.pods) }

// Depth returns the planner tree's actual depth: 1 for a single leaf
// (p = 1), 2 for the classic pod split, 3 for pods of pods.
func (ps *PodSnapshot) Depth() int { return ps.root.Depth() }

// Root returns the recursive planner tree. Read-only, safe for
// concurrent use; inspect it for shape, never mutate it.
func (ps *PodSnapshot) Root() *Unit { return ps.root }

// Profile returns the frozen model. Read-only, exactly like
// Snapshot.Profile.
func (ps *PodSnapshot) Profile() *Profile { return ps.profile }

// Events returns 0: pod leaves hold no kinetic tables, so there are no
// event times. Kept so pod and whole-room snapshots report alike.
func (ps *PodSnapshot) Events() int { return 0 }

// TableBytes returns 0: pod leaves hold no kinetic tables. Kept so pod
// and whole-room snapshots report alike.
func (ps *PodSnapshot) TableBytes() int { return 0 }

// Select returns the hierarchical on-set for the given room load: the
// recursive allocator splits the load down the planner tree, each pod
// picks its clamped power-optimal front set for its slice, and the union
// (ascending global IDs) is returned. A pod whose clamp admits no subset
// falls back to powering its whole shard — always capacity-feasible for
// the clamped slice.
func (ps *PodSnapshot) Select(load float64) ([]int, error) {
	return ps.selectUnion(load)
}

// Plan returns the hierarchical plan for the given total load: recursive
// subset selection (Select) followed by the room's exact closed form
// over the union, so the load split and supply temperature are exact for
// the chosen machines and any optimality gap lives in the subset choice
// alone.
func (ps *PodSnapshot) Plan(load float64) (*Plan, error) {
	return ps.plan(load)
}

// Consolidate answers select(A, k ≥ minK, L) hierarchically: the on-set
// from Select, topped up deterministically with the front-most unused
// machines when the union is smaller than minK, scored with the room's
// Eq. 23.
func (ps *PodSnapshot) Consolidate(load float64, minK int) (Selection, error) {
	return ps.consolidate(load, minK)
}

// MaxLoad answers the budget question hierarchically: each pod proposes
// its best subset for its cooling-share of the budget (DFS over the
// planner tree), and the room's exact budget boundary (Eq. 23–24) is
// solved once over the union.
func (ps *PodSnapshot) MaxLoad(budgetW float64) (MaxLoadResult, error) {
	return ps.maxLoad(budgetW)
}

// refineUnion is a bounded greedy exchange pass over the pod union. The
// per-pod selections are each front-optimal at their own pod time, but
// the room optimum is a front set at one shared time, so membership at
// the pod boundaries can be off by a few machines. Under Eq. 23 a
// single add/remove move re-scores in O(1):
//
//	add m:    t' = t + x_m(t)/(ΣB + b_m)
//	remove m: t' = t − x_m(t)/(ΣB − b_m)
//
// so the pass repeatedly applies the best strictly-improving move under
// the clamped room score until none remains or the iteration budget runs
// out. Starting from the exact optimum no move improves (front sets are
// optimal per §III-B), which keeps the single-leaf path untouched; from
// a pod union the pass closes most of the boundary gap.
//
// Each move needs only the top outsider and the bottom insider at the
// current t. Two kinetic tournaments (tournament.go) supply them: built
// once per call in O(n), then a move re-evaluates only the tree nodes
// whose certified t-interval the new t left, plus one root path per
// membership change — instead of scanning all n machines. Nodes compare
// lines with the scan's own A − t*B and ascending-ID tie-break, and
// trust a winner only while t stays farther from the crossing than
// rounding can reach, so the unions are exactly the scan's.
func (pt *planTree) refineUnion(union []int, load float64) []int {
	return pt.refineUnionBlocked(union, load, nil)
}

// refineUnionBlocked is refineUnion with an optional avoid mask: blocked
// machines never enter the union through an add or swap move. The
// degraded path passes its avoid set; the healthy path passes nil.
func (pt *planTree) refineUnionBlocked(union []int, load float64, blocked []bool) []int {
	r := pt.room
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
	// score is the clamped room power of a candidate aggregate, the same
	// objective clampedSelect ranks subset sizes with.
	b := pt.profile.bounds(1)
	score := func(k int, sumA, sumB float64) (float64, bool) {
		t := (sumA - load) / sumB
		if t < 0 {
			return 0, false
		}
		return b.power(k, t, load)
	}
	cur, ok := score(k, sumA, sumB)
	if !ok {
		return union // leave infeasible aggregates to SolveBounded's diagnostics
	}
	// Best addition: the unused, unblocked machine with the largest
	// coordinate; best removal: the used machine with the smallest. Two
	// kinetic tournaments (tournament.go) track both as t moves, with the
	// lowest ID winning ties.
	unblocked := func(i int) bool { return blocked == nil || !blocked[i] }
	out := make([]bool, n)
	for i := range out {
		out[i] = !in[i] && unblocked(i)
	}
	t := (sumA - load) / sumB
	adds := newLineTournament(r.Pairs, out, true, t)
	rems := newLineTournament(r.Pairs, in, false, t)
	// toggle moves machine i across the union boundary in both trees,
	// which are valid at t after this move's best calls.
	toggle := func(i int) {
		in[i] = !in[i]
		out[i] = !in[i] && unblocked(i)
		adds.fix(i, t)
		rems.fix(i, t)
	}
	maxMoves := 4*len(pt.pods) + 8
	for move := 0; move < maxMoves; move++ {
		t = (sumA - load) / sumB
		addIdx, remIdx := adds.best(t), rems.best(t)
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
		// Same-k swap: when the count is right but membership at a pod
		// boundary is wrong, neither single move pays (add charges W2,
		// remove loses coverage) yet trading the back-most member for the
		// front-most outsider strictly raises t.
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
			toggle(remIdx)
			toggle(addIdx)
			sumA += r.Pairs[addIdx].A - r.Pairs[remIdx].A
			sumB += r.Pairs[addIdx].B - r.Pairs[remIdx].B
		case bestIdx < 0:
			return unionFromMask(in, k)
		case bestAdd:
			toggle(bestIdx)
			sumA += r.Pairs[bestIdx].A
			sumB += r.Pairs[bestIdx].B
			k++
		default:
			toggle(bestIdx)
			sumA -= r.Pairs[bestIdx].A
			sumB -= r.Pairs[bestIdx].B
			k--
		}
		cur = bestPower
	}
	return unionFromMask(in, k)
}

// unionFromMask materializes a membership mask as ascending machine IDs.
func unionFromMask(in []bool, k int) []int {
	out := make([]int, 0, k)
	for i, used := range in {
		if used {
			out = append(out, i)
		}
	}
	return out
}
