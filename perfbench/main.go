// Command perfbench is coolopt's end-to-end benchmark. It builds a room
// from a seed, serves plans from it the way pland does, checks every
// answer against the paper's model evaluated by the benchmark's own
// arithmetic, and prints the metrics BENCHMARK.json names.
//
//	perfbench --workload cold-large|zipf-http|drift-patch --seed N --seconds S --trace 0|1
//	perfbench compare -a DIR -b DIR [-workloads a,b]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run repeats its timed phase
// with a span around every call into a layer and reports the per-layer
// metrics, each layer's self time and the tracing overhead. README.md
// describes the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"coolopt/internal/core"
	"coolopt/internal/engine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names a metric and its unit, as BENCHMARK.json lists it.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a --trace 0 run prints.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"plan_p50_ms", "ms"},
	{"plan_tail_ms", "ms"},
	{"plan_qps", "1/s"},
	{"plan_power_kw", "kW"},
	{"degraded_p50_ms", "ms"},
	{"install_p50_ms", "ms"},
	{"install_tail_ms", "ms"},
}

// perLayer are the metrics a --trace 1 run prints. A workload that never
// makes a layer's call reports that metric as 0 (README.md lists which).
var perLayer = []metricDef{
	{"core.select_ms", "ms"},
	{"core.solve_ms", "ms"},
	{"core.validate_ms", "ms"},
	{"core.union_size", "count"},
	{"core.avoid_ms", "ms"},
	{"core.build_s", "s"},
	{"core.events", "count"},
	{"core.table_mb", "MB"},
	{"core.patch_ms", "ms"},
	{"core.patch_spread_ms", "ms"},
	{"core.pods_touched", "count"},
	{"core.flat_patch_ms", "ms"},
	{"core.exact_build_ms", "ms"},
	{"engine.miss_overhead_ms", "ms"},
	{"engine.hit_us", "us"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.cache_misses", "count"},
	{"engine.consolidate_us", "us"},
	{"engine.maxload_us", "us"},
	{"engine.prepare_ms", "ms"},
	{"engine.commit_us", "us"},
	{"engine.stale_installs", "count"},
	{"roomapi.overhead_us", "us"},
	{"roomapi.resp_bytes", "bytes"},
	{"profiling.run_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
}

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	spans   string // where the traced run writes its spans; "" = nowhere
	toy     bool   // toy-sized rooms for the package's own tests
}

// report is what a workload hands back: operation counts, the outcome
// of every check, the metrics, and the lines printed above the result.
type report struct {
	attempted, failed int
	checkErrs         []string // failed checks: the run is not correct
	opErrs            []string // failed operations, counted in failed
	checked           int      // plans checked
	formLoads         int      // of those, compared with Eq. 22
	formSupply        int      // of those, compared with Eq. 21
	e2e               map[string]float64
	layer             map[string]float64
	lines             []string
	tracer            *tracer
}

func newReport() *report {
	return &report{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// fail records a failed check; the run then reports correct: false.
func (r *report) fail(format string, args ...any) {
	r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
}

// opFail records an operation that failed; it counts in failed and
// leaves correct alone.
func (r *report) opFail(format string, args ...any) {
	r.failed++
	r.opErrs = append(r.opErrs, fmt.Sprintf(format, args...))
}

// checkServed checks one plan the engine served with checkPlan.
func (r *report) checkServed(p *core.Profile, resp *engine.Response, want, loadTol float64, avoid []int) {
	r.checkPlanned(p, resp.Plan, resp.ShedLoad, resp.Epoch, want, loadTol, avoid)
}

// checkPlanned checks one plan with checkPlan; a plan shed to capacity
// must carry the demand minus the shed.
func (r *report) checkPlanned(p *core.Profile, pl *core.Plan, shed float64, epoch uint64, want, loadTol float64, avoid []int) {
	r.checked++
	c, err := checkPlan(p, pl, want-shed, loadTol, avoid)
	if err != nil {
		r.fail("plan for load %.6f (epoch %d): %v", want, epoch, err)
		return
	}
	if c.loads {
		r.formLoads++
	}
	if c.supply {
		r.formSupply++
	}
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*report, error){
	"cold-large":  runColdLarge,
	"zipf-http":   runZipfHTTP,
	"drift-patch": runDriftPatch,
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if err := runCompare(args[1:], stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 1
		}
		return 0
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-large, zipf-http or drift-patch")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spans := fs.String("spans", "", "span file of a traced run (default .bench_build/perfbench/spans-<workload>-<seed>.jsonl.gz)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans}
	if opt.trace && opt.spans == "" {
		opt.spans = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.jsonl.gz", *name, *seed))
	}
	rep, err := wl(opt)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := finish(rep, opt, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	return 0
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish prints the report's lines, the traced run's self times and
// span file, and the JSON result.
func finish(rep *report, opt options, stdout, stderr io.Writer) error {
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	fmt.Fprintf(stdout, "checked %d plans: loads against Eq. 22 on %d, T_ac against Eq. 21 on %d; %d failed checks; %d of %d operations failed\n",
		rep.checked, rep.formLoads, rep.formSupply, len(rep.checkErrs), rep.failed, rep.attempted)
	printCapped(stderr, "check", rep.checkErrs)
	printCapped(stderr, "failed operation", rep.opErrs)
	defs, values := endToEnd, rep.e2e
	if opt.trace {
		defs, values = perLayer, rep.layer
		if rep.tracer != nil {
			rep.tracer.writeSelfTimes(stdout)
			if opt.spans != "" {
				if err := rep.tracer.writeFile(opt.spans); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "spans written to %s\n", opt.spans)
			}
		}
	}
	if rep.attempted < 1 {
		return errors.New("no operation attempted")
	}
	res := result{
		Correct:   len(rep.checkErrs) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// printCapped prints the first ten distinct messages of a list and how
// many distinct ones there were.
func printCapped(w io.Writer, label string, msgs []string) {
	seen := make(map[string]bool)
	for _, m := range msgs {
		if seen[m] {
			continue
		}
		seen[m] = true
		if len(seen) <= 10 {
			fmt.Fprintf(w, "%s: %s\n", label, m)
		}
	}
	if len(seen) > 10 {
		fmt.Fprintf(w, "%s: … %d distinct in all\n", label, len(seen))
	}
}

// overhead prints, for each end-to-end metric the traced phase also
// measured, the traced value against the untraced one.
func overhead(rep *report, traced map[string]float64) {
	var names []string
	for name := range traced {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := rep.e2e[name]
		pct := 0.0
		if base != 0 {
			pct = 100 * (traced[name] - base) / base
		}
		rep.printf("tracing overhead %-16s untraced %12.4f  traced %12.4f  (%+.1f %%)", name, base, traced[name], pct)
	}
}

// joinInts renders an ID list the way /v1/plan's avoid parameter takes it.
func joinInts(ids []int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprint(id)
	}
	return strings.Join(parts, ",")
}

// secondsOf converts a float seconds flag to a duration.
func secondsOf(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
