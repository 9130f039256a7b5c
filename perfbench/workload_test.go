package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runToy runs one workload at toy size through the same output path as
// the command and returns the parsed last line.
func runToy(t *testing.T, name string, seed int64, seconds float64, trace bool) result {
	t.Helper()
	opt := options{seed: seed, seconds: seconds, trace: trace, toy: true}
	if trace {
		opt.spans = filepath.Join(t.TempDir(), "spans.jsonl.gz")
	}
	rep, err := workloads[name](opt)
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := finish(rep, opt, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("%s: correct %v, attempted %d\n%s\n%s", name, res.Correct, res.Attempted, out.String(), errOut.String())
	}
	defs := endToEnd
	if trace {
		defs = perLayer
		if _, err := os.Stat(opt.spans); err != nil {
			t.Fatalf("%s: no span file: %v", name, err)
		}
	}
	if len(res.Metrics) != len(defs) {
		t.Fatalf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Fatalf("%s: metric %s missing or not in %s: %+v", name, d.name, d.unit, m)
		}
		if !trace && m.Value <= 0 {
			t.Fatalf("%s: end-to-end metric %s = %v", name, d.name, m.Value)
		}
	}
	return res
}

func TestWorkloadsAtToySize(t *testing.T) {
	for _, name := range []string{"cold-large", "drift-patch"} {
		if res := runToy(t, name, 3, 0.2, false); res.Failed != 0 {
			t.Errorf("%s: %d failed operations", name, res.Failed)
		}
	}
}

func TestTracedRunsReportEveryLayer(t *testing.T) {
	for _, name := range []string{"cold-large", "zipf-http", "drift-patch"} {
		res := runToy(t, name, 4, 0.1, true)
		if res.Metrics["runtime.gc_cycles"].Value < 0 {
			t.Errorf("%s: negative GC cycles", name)
		}
	}
}

// The share of failed operations must not depend on the seed or on how
// many rounds a run completes: runs are compared on it exactly.
func TestZipfFailedShareIsFixed(t *testing.T) {
	a := runToy(t, "zipf-http", 1, 0.05, false)
	b := runToy(t, "zipf-http", 2, 0.3, false)
	if a.Failed*b.Attempted != b.Failed*a.Attempted {
		t.Fatalf("failed %d of %d against %d of %d", a.Failed, a.Attempted, b.Failed, b.Attempted)
	}
}

// The metric tables of the command are the ones BENCHMARK.json names.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), the command %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}
