package core

// Snapshot is an immutable view of a profiled machine room: the
// per-machine thermal constants of Eq. 19 (α_i, β_i, γ_i and the derived
// K_i), the room-wide power and cooling models of Eqs. 9–10, and the
// consolidation tables of Algorithms 1–2 in their compressed kinetic form.
//
// A Snapshot is frozen at construction: NewSnapshot deep-copies the
// profile and every query path is read-only, so one Snapshot may be
// shared by any number of goroutines WITHOUT Clone() — it is the model
// half of the plant-model/optimizer split, published to planners by an
// atomic pointer swap (see internal/engine) while the mutable
// System/Simulator side keeps its clone discipline. The clonesafety
// analyzer sanctions capturing a Snapshot in a goroutine for exactly this
// reason.
//
// Internally the Snapshot is the single-leaf degenerate form of the
// recursive planner tree (unit.go): one leaf whose machine range is the
// entire room, with share exactly 1.0, so the shared planning path runs
// no water-fill and stays bit-identical to the historical flat planner.
// Unlike the hierarchical topologies it keeps flat semantics — a failed
// clamped table lookup is an infeasibility rather than a fall-back.
//
// Callers must treat the *Profile returned by Profile() as read-only;
// mutating it would corrupt the precomputed tables it no longer matches.
type Snapshot struct {
	epoch   uint64
	profile *Profile
	pre     *Preprocessed
	tree    planTree
}

// newFlatSnapshot assembles a Snapshot around already-built tables: the
// frozen profile, the single-leaf planner tree over the whole room, and
// the generation tag. NewSnapshot and both Patch paths funnel through it
// so the tree is always consistent with the tables.
func newFlatSnapshot(epoch uint64, p *Profile, pre *Preprocessed) *Snapshot {
	room := pre.reduced
	totalB := sumSpeeds(room.Pairs)
	leaf := leafSums(room, allIDs(p.Size()))
	leaf.setShare(p, totalB)
	leaf.pre = pre
	tree := planTree{
		profile: p,
		room:    room,
		pods:    []*pod{leaf},
		totalB:  totalB,
		depth:   1,
	}
	tree.root = buildUnitTree(tree.pods, 0, 1, 1)
	return &Snapshot{epoch: epoch, profile: p, pre: pre, tree: tree}
}

// NewSnapshot validates and deep-copies the profile, runs consolidation
// preprocessing once (forwarding any cap/worker options), and freezes the
// result. epoch tags the snapshot's generation: engines publish
// re-profiled or failure-adjusted snapshots with increasing epochs so
// cached plans from superseded snapshots are never confused with current
// ones.
func NewSnapshot(p *Profile, epoch uint64, opts ...PreprocessOption) (*Snapshot, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	frozen := *p
	frozen.Machines = append([]MachineProfile(nil), p.Machines...)
	pre, err := Preprocess(frozen.Reduce(), opts...)
	if err != nil {
		return nil, err
	}
	return newFlatSnapshot(epoch, &frozen, pre), nil
}

// Epoch returns the snapshot's generation tag.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Size returns the number of machines.
func (s *Snapshot) Size() int { return s.profile.Size() }

// Profile returns the frozen model. Read-only: see the type comment.
func (s *Snapshot) Profile() *Profile { return s.profile }

// Tables returns the consolidation tables (Algorithm 1's compressed
// output); all its query methods are safe for concurrent use.
func (s *Snapshot) Tables() *Preprocessed { return s.pre }

// Root returns the (single-leaf) planner tree. Read-only, safe for
// concurrent use; inspect it for shape, never mutate it.
func (s *Snapshot) Root() *Unit { return s.tree.root }

// Plan returns the minimum-power plan for the given total load (in
// machine-utilization units) with consolidation: machines outside the
// returned on set should be powered off.
//
// For each feasible machine count k ≥ ⌈load⌉ the particle structure yields
// the t-maximizing subset; the candidate's power is scored with the supply
// temperature clamped into the actuation range (the paper's Eq. 23 scores
// the unclamped value, which would over-reward subsets that cannot
// actually raise the supply any further). The load split inside the winner
// comes from SolveBounded. The shared recursive planning path (unit.go)
// degenerates to exactly this for a single leaf.
func (s *Snapshot) Plan(load float64) (*Plan, error) {
	return s.tree.plan(load, nil)
}

// PlanNoConsolidation returns the minimum-power plan that keeps every
// machine powered on (scenarios #4–#6 in the paper's evaluation tree).
func (s *Snapshot) PlanNoConsolidation(load float64) (*Plan, error) {
	return s.profile.PlanAllOn(load)
}

// PlanAvoiding is Plan over the machines not named in avoid, with the
// same contract as PodSnapshot.PlanAvoiding. The table-backed leaf
// answers only for the whole room, so a failure moves it onto the
// survivor leaf solver (leafSelect): the plan is the one Plan would
// return for the room without the failed machines.
func (s *Snapshot) PlanAvoiding(load float64, avoid []int) (*Plan, error) {
	return s.tree.plan(load, avoid)
}
