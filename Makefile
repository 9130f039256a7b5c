GO ?= go

# ci is the tier-1 gate: formatting, vet, the repo's own static-analysis
# suite, race-enabled tests, a full build, and small serving-bench,
# hierarchy-bench, and degraded-bench smoke runs. The race step guards
# the concurrent paths (the plan engine, the parallel kinetic
# preprocessing, the figures.Collect worker pool,
# and the degraded-serving chaos hammer in internal/chaos); lint
# enforces the determinism, unit-safety, and clone-discipline invariants
# the experiments depend on plus the concurrency contracts of the
# serving layer (atomic-field discipline, typed-error chains,
# goroutine/timer hygiene, snapshot immutability), printing per-analyzer
# wall time; the hierarchy and degraded smokes enforce
# the pod planner's optimality-gap bounds at a small size; the
# degraded-chaos smoke asserts the overload-serving contract (only
# 200/400/503, Retry-After on every 503, readiness flipping across a
# slow install) over loopback HTTP; the incremental smokes gate the
# patch-install path — the small benchmark run checks Snapshot.Patch
# speed and bit-identity, and the incremental chaos smoke replays served
# answers against the exact generation their epoch claims while installs
# trickle; perfbench-smoke runs the end-to-end benchmark's zipf-http
# workload for a second and fails on any wrong answer or failed
# operation; fuzz-smoke fuzzes the table-backed leaf planner's
# early-stopping k sweep against its full-sweep oracle, the table-free
# leaf planner against exhaustive enumeration, the crossing radix sort
# against the comparison sort, snapshot patches against cold rebuilds and
# the pooled union refinement against its scan, and the degraded single
# leaf against the survivor room's healthy plan, ten seconds each; cover
# ratchets combined internal/core + internal/engine statement coverage
# against the committed coverage_baseline.json.
.PHONY: ci
ci: fmt-check vet lint race build serving-smoke hierarchy-smoke hier3-smoke degraded-smoke degraded-chaos-smoke incremental-smoke incremental-chaos-smoke perfbench-smoke fuzz-smoke cover

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

.PHONY: race
race:
	$(GO) test -race ./...

.PHONY: vet
vet:
	$(GO) vet ./...

# lint runs the full nine-analyzer cooloptlint suite (see
# cmd/cooloptlint) over every package, with per-analyzer wall time on
# stderr and the committed (empty) baseline applied.
.PHONY: lint
lint:
	$(GO) run ./cmd/cooloptlint -timing -baseline lint_baseline.json ./...

# lint-json writes the machine-readable findings to lint_findings.json
# for editor / dashboard consumption. Exit code still 1 on findings.
.PHONY: lint-json
lint-json:
	$(GO) run ./cmd/cooloptlint -json -baseline lint_baseline.json ./... > lint_findings.json

# fmt-check fails if any tracked Go file (fixtures included) is not gofmt'd.
.PHONY: fmt-check
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

.PHONY: bench
bench:
	$(GO) test -bench=. -benchmem ./...

# Refresh the consolidation scaling trajectory committed at the repo root.
.PHONY: consolidation-bench
consolidation-bench:
	$(GO) run ./cmd/paperbench -consolidation-bench BENCH_consolidation.json

# Refresh the concurrent plan-serving trajectory committed at the repo root.
.PHONY: serving-bench
serving-bench:
	$(GO) run ./cmd/paperbench -serving-bench BENCH_serving.json

# serving-smoke exercises the serving benchmark end-to-end at a small
# size so ci catches regressions without paying for the 4096 run.
.PHONY: serving-smoke
serving-smoke:
	$(GO) run ./cmd/paperbench -serving-bench /tmp/BENCH_serving_smoke.json -serving-max-n 64 -serving-queries 64

# Refresh the pod-sharded hierarchical planning trajectory committed at
# the repo root (includes the 65536-machine point).
.PHONY: hierarchy-bench
hierarchy-bench:
	$(GO) run ./cmd/paperbench -hierarchy-bench BENCH_hierarchy.json

# hierarchy-smoke runs the hierarchy benchmark at a small size; it fails
# if the hierarchical planner's worst-case gap vs the exact optimum
# exceeds -hierarchy-gap-limit (default 5 %).
.PHONY: hierarchy-smoke
hierarchy-smoke:
	$(GO) run ./cmd/paperbench -hierarchy-bench /tmp/BENCH_hierarchy_smoke.json -hierarchy-max-n 256 -hierarchy-pod-size 32 -hierarchy-queries 64

# Refresh the depth-3 (pods-of-pods) trajectory committed at the repo
# root, including the 262144-machine point, with build-time and
# cold-plan latency gates alongside the usual gap gate. The gate values
# give ~3.5x headroom over the measured 35 s build / 1.4 s cold plan at
# n=262144 on the reference container.
.PHONY: hierarchy3-bench
hierarchy3-bench:
	$(GO) run ./cmd/paperbench -hierarchy-bench BENCH_hierarchy3.json -hierarchy-depth 3 -hierarchy-max-n 262144 -hierarchy-queries 64 -hierarchy-build-limit 120s -hierarchy-cold-plan-limit 5s

# hier3-smoke runs the same depth-3 planner tree at a small size: 8 pods
# of 32 under a 3-level tree, with the gap gate proving the recursive
# water-fill stays within bounds when interior nodes nest.
.PHONY: hier3-smoke
hier3-smoke:
	$(GO) run ./cmd/paperbench -hierarchy-bench /tmp/BENCH_hierarchy3_smoke.json -hierarchy-max-n 256 -hierarchy-pod-size 32 -hierarchy-depth 3 -hierarchy-queries 64

# podsize-sweep regenerates the embedded pod-sizing calibration curve
# (internal/core/podsize_calibration.json) from measurements on this
# hardware: every (pod size, depth) candidate per room size, keeping the
# fastest cold plan that fits the build and gap budgets.
.PHONY: podsize-sweep
podsize-sweep:
	$(GO) run ./cmd/paperbench -podsize-sweep internal/core/podsize_calibration.json -podsize-sweep-max-n 262144

# Refresh the degraded-planning trajectory committed at the repo root
# (n=4096, 16 pods: pod-local vs flat degraded re-planning with the
# ≥10× speedup and ≤1 %/5 % gap gates).
.PHONY: degraded-bench
degraded-bench:
	$(GO) run ./cmd/paperbench -degraded-bench BENCH_degraded.json

# degraded-smoke runs the degraded benchmark at a small size. The gap
# limits are slightly looser than the 4096-point defaults: with only 4
# pods of 64 machines, single-machine failures weigh proportionally more
# than they do at the committed trajectory's scale.
.PHONY: degraded-smoke
degraded-smoke:
	$(GO) run ./cmd/paperbench -degraded-bench /tmp/BENCH_degraded_smoke.json -degraded-n 256 -degraded-pods 4 -degraded-gap-mean-limit 0.02 -degraded-speedup-floor 2

# degraded-chaos-smoke hammers a pod-only engine's avoid= surface over
# loopback HTTP through an overload window and a slow snapshot install;
# any serving-contract violation fails it.
.PHONY: degraded-chaos-smoke
degraded-chaos-smoke:
	$(GO) run ./cmd/paperbench -degraded-chaos -degraded-n 128 -degraded-pods 4

# Refresh the incremental snapshot-maintenance trajectory committed at
# the repo root (n=4096: PodSnapshot.Patch vs full rebuild with the ≥20×
# speedup gate at k=16, the ≥2× pod-patch-over-cold-pod-build gate for a
# concentrated k=16 batch, the ≤2.5 cold-pod-build pipelined-prepare
# gate and the <1 ms pipelined-commit gate).
.PHONY: incremental-bench
incremental-bench:
	$(GO) run ./cmd/paperbench -incremental-bench BENCH_incremental.json

# incremental-smoke runs the incremental benchmark at a small size. The
# speedup floor is looser than the committed trajectory's: with 256
# machines in 8 pods a 16-machine batch touches most pods, so the
# locality win is proportionally smaller than at 4096. For the same
# reason the pod-patch gate applies only from 16 pods up; the prepare
# gate applies here too.
.PHONY: incremental-smoke
incremental-smoke:
	$(GO) run ./cmd/paperbench -incremental-bench /tmp/BENCH_incremental_smoke.json -incremental-n 256 -incremental-pods 8 -incremental-speedup-floor 2

# incremental-chaos-smoke trickles pipelined patch installs through a
# live engine while exact, degraded, and budget workers replay every
# sampled answer bit-for-bit against the generation its epoch claims;
# any mixed-epoch answer, readiness flap, or shed query fails it.
.PHONY: incremental-chaos-smoke
incremental-chaos-smoke:
	$(GO) run ./cmd/paperbench -incremental-chaos -incremental-n 64 -incremental-pods 4

# perfbench-smoke runs perfbench's zipf-http workload (the profiled 4×16
# row served over loopback HTTP) for one second and fails unless its
# last line reports "correct":true and "failed":0. Each round sweeps 256
# demand levels comparing the paper's solution (#8) with all-on (#6), so
# this also guards the single-leaf planner against drawing more power
# than all-on. The build cache and binary stay under .bench_build/.
.PHONY: perfbench-smoke
perfbench-smoke:
	@out=$$(bash perfbench/run.sh --workload zipf-http --seed 1 --seconds 1 --trace 0 | tail -n 1); \
	if echo "$$out" | grep -q '"correct":true' && echo "$$out" | grep -q '"failed":0,'; then \
		echo "perfbench-smoke: correct, no failed operations"; \
	else \
		echo "perfbench-smoke: want \"correct\":true and \"failed\":0, got:"; echo "$$out"; exit 1; \
	fi

# fuzz-smoke runs six fuzz targets for ten seconds each.
# FuzzClampedSelect draws random small rooms, clamp bounds and loads,
# where clampedSelect's cooling-floor stop must pick the full sweep's k,
# event and score bit for bit. FuzzLeafSelect draws rooms of at most ten
# machines, optionally survivor-masked, where the table-free leafSelect
# must pick the k and the best time that enumerating every k-subset
# finds. FuzzSortCrossings draws crossing lists
# (ties, 1-ulp neighbours, subnormals, MaxFloat64, +Inf) on both sides of
# the insertion-sort cutoff, where the radix sort must match the
# comparison sort's time sequence and keep every record.
# FuzzSnapshotPatch draws drift batches (empty, all machines, invalid
# coefficients, duplicate and out-of-range IDs), where both Patch paths,
# the touched-leaf pod patch among them, must match a cold rebuild byte
# for byte or refuse with ErrBadDelta. FuzzRefineUnion draws small rooms
# with ties and 1-ulp nudges, where the union refinement on its pooled
# workspace must return the scan's union exactly. FuzzPlanAvoiding draws
# rooms of at most ten machines, optionally ulp-nudged, and a survivor
# mask, where a one-pod snapshot's PlanAvoiding must return the healthy
# plan of the room without the avoided machines bit for bit. New failing
# inputs land in internal/core/testdata/fuzz/<target>.
.PHONY: fuzz-smoke
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzClampedSelect$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzLeafSelect$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSortCrossings$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotPatch$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRefineUnion$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPlanAvoiding$$' -fuzztime 10s ./internal/core

# cover runs the full test suite with atomic coverage and ratchets the
# combined internal/core + internal/engine statement coverage against
# the committed baseline (see cmd/covergate). Refresh the floor after a
# genuine coverage improvement with:
#   go run ./cmd/covergate -profile /tmp/coolopt_cover.out -write-baseline
.PHONY: cover
cover:
	$(GO) test -count=1 -covermode=atomic -coverprofile=/tmp/coolopt_cover.out ./...
	$(GO) run ./cmd/covergate -profile /tmp/coolopt_cover.out -baseline coverage_baseline.json
