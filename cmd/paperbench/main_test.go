package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTable1Only(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-machines", "8", "-fig", "table1"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table I") {
		t.Fatalf("missing Table I:\n%s", out)
	}
	if strings.Contains(out, "Fig. 6") {
		t.Fatal("unrequested figure printed")
	}
}

func TestRunFig2And3(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-machines", "8", "-fig", "2"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "Fig. 2") {
		t.Fatal("missing Fig. 2")
	}
	buf.Reset()
	if err := run([]string{"-machines", "8", "-fig", "3", "-fig3-machine", "2"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "Fig. 3") {
		t.Fatal("missing Fig. 3")
	}
}

func TestRunFig3MachineOutOfRange(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-machines", "8", "-fig", "3", "-fig3-machine", "99"}, &buf); err == nil {
		t.Fatal("out-of-range machine accepted")
	}
}

func TestRunSweepFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-machines", "8", "-fig", "9"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "Fig. 9") {
		t.Fatal("missing Fig. 9")
	}
}

func TestRunConsolidationBench(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_consolidation.json")
	var buf bytes.Buffer
	// Cap the dense reference at 64 machines to keep the test fast; the
	// kinetic sizes always run in full.
	if err := run([]string{"-consolidation-bench", path, "-consolidation-dense-max", "64"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trajectory not written: %v", err)
	}
	var res consolidationBench
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.KineticNS <= 0 || pt.KineticTableBytes <= 0 || pt.Pieces <= 0 {
			t.Fatalf("incomplete point %+v", pt)
		}
	}
	first := res.Points[0]
	if first.N != 64 || first.DenseNS <= 0 || first.MemoryRatio <= 1 {
		t.Fatalf("dense reference missing or not larger than kinetic at n=64: %+v", first)
	}
	if !strings.Contains(buf.String(), "wrote consolidation trajectory") {
		t.Fatal("confirmation missing")
	}
}

func TestRunServingBench(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_serving.json")
	var buf bytes.Buffer
	// Cap the room size at 64 machines and shrink the query count to
	// keep the test fast; the full trajectory runs up to 4096.
	if err := run([]string{"-serving-bench", path, "-serving-max-n", "64", "-serving-queries", "48"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trajectory not written: %v", err)
	}
	var res servingBench
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("points = %d, want 1", len(res.Points))
	}
	pt := res.Points[0]
	if pt.N != 64 || pt.Goroutines != 8 || pt.SnapshotBuildNS <= 0 {
		t.Fatalf("incomplete point %+v", pt)
	}
	if pt.PlanColdQPS <= 0 || pt.PlanHotQPS <= 0 || pt.PlanZipfQPS <= 0 || pt.MaxLoadQPS <= 0 || pt.ConsolidateQPS <= 0 {
		t.Fatalf("non-positive throughput %+v", pt)
	}
	if pt.Pods != 0 {
		t.Fatalf("pods installed below the hierarchy threshold: %+v", pt)
	}
	if !strings.Contains(buf.String(), "wrote serving trajectory") {
		t.Fatal("confirmation missing")
	}
}

func TestRunHierarchyBench(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_hierarchy.json")
	var buf bytes.Buffer
	// Cap the room size at 256 machines (4 pods of 64) and shrink the
	// query count to keep the test fast; the full trajectory runs up to
	// 65536.
	if err := run([]string{"-hierarchy-bench", path, "-hierarchy-max-n", "256", "-hierarchy-pod-size", "64", "-hierarchy-queries", "32"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trajectory not written: %v", err)
	}
	var res hierarchyBench
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("points = %d, want 1", len(res.Points))
	}
	pt := res.Points[0]
	if pt.N != 256 || pt.Pods != 4 || pt.BuildNS <= 0 {
		t.Fatalf("incomplete point %+v", pt)
	}
	if pt.Events != 0 || pt.TableBytes != 0 {
		t.Fatalf("table-free pods report tables: %+v", pt)
	}
	if pt.PlanColdQPS <= 0 || pt.PlanHotQPS <= 0 {
		t.Fatalf("non-positive throughput %+v", pt)
	}
	// 256 machines is within the exact cap, so the gap sweep must have
	// run and stayed under the default 5 % limit (the run errors past it).
	if pt.ExactBuildNS <= 0 {
		t.Fatalf("gap sweep skipped at n=256: %+v", pt)
	}
	if pt.GapWorst < 0 || pt.GapWorst > 0.05 {
		t.Fatalf("gap out of range: %+v", pt)
	}
	if !strings.Contains(buf.String(), "wrote hierarchy trajectory") {
		t.Fatal("confirmation missing")
	}
	// An unreachable gap limit must fail the run (the gap is never
	// negative, so a negative limit always trips).
	if err := run([]string{"-hierarchy-bench", path, "-hierarchy-max-n", "256", "-hierarchy-pod-size", "64", "-hierarchy-queries", "32", "-hierarchy-gap-limit", "-1"}, &buf); err == nil {
		t.Fatal("negative gap limit accepted")
	}
}

func TestRunFlagError(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-nope"}, &buf); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunCSVExport(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-machines", "8", "-fig", "9", "-csv", dir}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig_9.csv")); err != nil {
		t.Fatalf("csv not saved: %v", err)
	}
	if !strings.Contains(buf.String(), "saved") {
		t.Fatal("save confirmation missing")
	}
}

func TestRunReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.md")
	var buf bytes.Buffer
	if err := run([]string{"-machines", "8", "-fig", "verify", "-report", path}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	if !strings.Contains(string(data), "## Headline") {
		t.Fatal("report missing headline section")
	}
}

func TestRunAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations build several full systems")
	}
	var buf bytes.Buffer
	if err := run([]string{"-fig", "table1", "-ablations"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"Ablation A", "Ablation B", "Ablation C", "Ablation D", "Ablation F", "Extension E"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("ablation output missing %q", want)
		}
	}
}
