package main

import (
	"math"
	"math/rand"
	"sort"

	"coolopt/internal/core"
)

// This file builds every input a run uses from the --seed value: the
// synthetic rooms, the demand levels, the avoid lists and the drift
// batches. The program under test only ever sees the generated inputs.

// syntheticRoom returns an n-machine room shaped like the paperbench
// synthetic profile (a cold-to-hot gradient across machine IDs, so pods
// of contiguous IDs differ the way racks at different positions do) with
// a seeded per-machine spread of ±5 % on β and ±0.5 °C on γ.
func syntheticRoom(n int, seed int64) *core.Profile {
	r := rand.New(rand.NewSource(seed))
	machines := make([]core.MachineProfile, n)
	for i := range machines {
		h := float64(i) / float64(n-1)
		machines[i] = core.MachineProfile{
			Alpha: 1.0,
			Beta:  0.46 * (1 + 0.1*h + 0.05*(2*r.Float64()-1)),
			Gamma: 0.5 + 2.2*h + 0.5*(2*r.Float64()-1),
		}
	}
	return &core.Profile{
		W1: 52, W2: 34, CoolFactor: 150, SetPointC: 31,
		TMaxC: 65, TAcMinC: 10, TAcMaxC: 25,
		Machines: machines,
	}
}

// copyProfile deep-copies a profile so the benchmark can patch its own
// reference copy alongside the engine.
func copyProfile(p *core.Profile) *core.Profile {
	c := *p
	c.Machines = append([]core.MachineProfile(nil), p.Machines...)
	return &c
}

// applyBatch writes a drift batch into the benchmark's reference copy.
func applyBatch(p *core.Profile, batch []core.MachineDelta) {
	for _, d := range batch {
		p.Machines[d.ID] = d.Machine
	}
}

// driftOf returns machine id's pristine coefficients moved by a seeded
// thermal drift: β by up to ±2 %, γ by up to ±0.3 °C. Deltas are taken
// from the pristine room rather than compounded, so a long run stays in
// the neighbourhood of the room it started from.
func driftOf(r *rand.Rand, pristine *core.Profile, id int) core.MachineDelta {
	m := pristine.Machines[id]
	m.Beta *= 1 + 0.02*(2*r.Float64()-1)
	m.Gamma += 0.3 * (2*r.Float64() - 1)
	return core.MachineDelta{ID: id, Machine: m}
}

// concentratedBatch drifts k distinct machines of one seeded pod, given
// as the pod's contiguous ID range [lo, hi).
func concentratedBatch(r *rand.Rand, pristine *core.Profile, lo, hi, k int) []core.MachineDelta {
	if k > hi-lo {
		k = hi - lo
	}
	perm := r.Perm(hi - lo)[:k]
	sort.Ints(perm)
	batch := make([]core.MachineDelta, k)
	for i, off := range perm {
		batch[i] = driftOf(r, pristine, lo+off)
	}
	return batch
}

// spreadBatch drifts one machine in each of k distinct seeded pods.
func spreadBatch(r *rand.Rand, pristine *core.Profile, pods [][2]int, k int) []core.MachineDelta {
	if k > len(pods) {
		k = len(pods)
	}
	pick := r.Perm(len(pods))[:k]
	sort.Ints(pick)
	batch := make([]core.MachineDelta, k)
	for i, j := range pick {
		lo, hi := pods[j][0], pods[j][1]
		batch[i] = driftOf(r, pristine, lo+r.Intn(hi-lo))
	}
	return batch
}

// podRanges returns the contiguous ID ranges of the pods of a
// PodSnapshot, found through the public PodIndex lookup.
func podRanges(ps *core.PodSnapshot) [][2]int {
	n := ps.Size()
	var out [][2]int
	lo := 0
	cur, _ := ps.PodIndex(0)
	for id := 1; id <= n; id++ {
		j := -1
		if id < n {
			j, _ = ps.PodIndex(id)
		}
		if j != cur {
			out = append(out, [2]int{lo, id})
			lo, cur = id, j
		}
	}
	return out
}

// avoidList returns k distinct seeded failed machines in ascending order.
func avoidList(r *rand.Rand, n, k int) []int {
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		id := r.Intn(n)
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// stratifiedLoads returns count demand levels in [lo, hi]·n, one per
// equal-width stratum, shuffled. Each level sits at a seeded offset
// within the middle share width of its stratum. Covering every stratum
// in every round keeps the mix of cheap and expensive loads the same
// from seed to seed, which is what keeps medians steady.
func stratifiedLoads(r *rand.Rand, n int, lo, hi float64, count int, width float64) []float64 {
	out := make([]float64, count)
	w := (hi - lo) / float64(count)
	for s := range out {
		out[s] = float64(n) * (lo + w*(float64(s)+0.5+width*(r.Float64()-0.5)))
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// bucketLoads is stratifiedLoads with every level moved to the middle
// band of its own engine cache bucket (0.1 % of capacity) and every
// bucket used at most once across the whole run, so each request is a
// cache miss by construction rather than by luck.
type bucketLoads struct {
	n    int
	used map[int64]bool
}

func newBucketLoads(n int) *bucketLoads {
	return &bucketLoads{n: n, used: make(map[int64]bool)}
}

// next returns a load near want whose cache bucket has not been used
// yet, searching outwards from want's own bucket. A run uses far fewer
// than the 1000 buckets of the room; should they all be used, want is
// returned as it is.
func (b *bucketLoads) next(r *rand.Rand, want float64) float64 {
	q := 0.001 * float64(b.n)
	base := int64(math.Round(want / q))
	for step := int64(0); step < 1000; step++ {
		for _, c := range []int64{base + step, base - step} {
			if c < 1 || c >= 1000 || b.used[c] {
				continue
			}
			b.used[c] = true
			return (float64(c) + 0.4*(2*r.Float64()-1)) * q
		}
	}
	return want
}

// zipfLevels returns the demand levels of the zipf-http workload: 256
// levels evenly spanning 5–95 % of capacity. The same list is the fault
// sweep's, so it does not depend on the seed.
func zipfLevels(n int) []float64 {
	out := make([]float64, 256)
	for j := range out {
		out[j] = float64(n) * (0.05 + 0.9*float64(j)/255)
	}
	return out
}
