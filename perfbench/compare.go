package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// The compare mode runs the benchmark in two checkouts — a parent and a
// change — in alternating pairs, and judges every end-to-end metric of
// every workload:
//
//	better      one side wins at least nine pairs in ten and the medians
//	            differ by more than the other side's quartile spread;
//	worse       side b's median is worse than side a's by more than the
//	            metric's bound;
//	unresolved  either side's run-to-run spread (quartile distance over
//	            median) is wider than the bound;
//	same        none of the above.
//
// Each workload runs comparePairs pairs, pair i with seed i on both
// sides, and every run lasts run_seconds of BENCHMARK.json, as the
// benchmark's own command does.

// comparePairs is the number of alternating pairs per workload that the
// nine-in-ten rule is written for.
const comparePairs = 10

// benchSpec is the part of BENCHMARK.json the compare mode reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// runFunc runs one benchmark run of a workload in a checkout.
type runFunc func(dir, workload string, seed int64, seconds int) (*result, error)

// runCheckout runs the benchmark's command in a checkout and parses the
// last line of its output.
func runCheckout(dir, workload string, seed int64, seconds int) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "bash", "perfbench/run.sh",
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d in %s: %w\n%s", workload, seed, dir, err, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d in %s: last line: %w", workload, seed, dir, err)
	}
	return &res, nil
}

func runCompare(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	a := fs.String("a", "", "checkout of the base side (the parent)")
	b := fs.String("b", "", "checkout of the side under test (the change)")
	only := fs.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *a == "" || *b == "" {
		return errors.New("need -a and -b checkouts")
	}
	spec, err := loadSpec(filepath.Join(*b, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	} else {
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	return compare(stdout, spec, names, *a, *b, runCheckout)
}

// sideRuns gathers one side's runs of one workload.
type sideRuns struct {
	values            map[string][]float64
	attempted, failed int
	incorrect         int
}

// compare runs the pairs and prints, per workload and metric, each
// side's median and quartiles, the pair wins and the verdict.
func compare(w io.Writer, spec *benchSpec, workloads []string, dirA, dirB string, run runFunc) error {
	for _, wl := range workloads {
		sides := [2]*sideRuns{{values: map[string][]float64{}}, {values: map[string][]float64{}}}
		dirs := [2]string{dirA, dirB}
		for i := 0; i < comparePairs; i++ {
			seed := int64(i + 1)
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, s := range order {
				res, err := run(dirs[s], wl, seed, spec.RunSeconds)
				if err != nil {
					return err
				}
				sides[s].attempted += res.Attempted
				sides[s].failed += res.Failed
				if !res.Correct {
					sides[s].incorrect++
				}
				for _, m := range spec.EndToEnd {
					sides[s].values[m.Name] = append(sides[s].values[m.Name], res.Metrics[m.Name].Value)
				}
			}
		}
		fmt.Fprintf(w, "%s: %d pairs; a failed %d of %d operations (%d incorrect runs), b failed %d of %d (%d incorrect runs)\n",
			wl, comparePairs, sides[0].failed, sides[0].attempted, sides[0].incorrect, sides[1].failed, sides[1].attempted, sides[1].incorrect)
		if sides[0].failed*sides[1].attempted != sides[1].failed*sides[0].attempted {
			fmt.Fprintf(w, "  the share of failed operations differs between the sides\n")
		}
		for _, m := range spec.EndToEnd {
			av, bv := sides[0].values[m.Name], sides[1].values[m.Name]
			v := judge(av, bv, m.Better == "higher", m.Bound)
			a1, a2, a3 := quartiles(av)
			b1, b2, b3 := quartiles(bv)
			fmt.Fprintf(w, "  %-16s a %12.4f [%.4f, %.4f]  b %12.4f [%.4f, %.4f] %-4s  b won %2d, a won %2d  %s\n",
				m.Name, a2, a1, a3, b2, b1, b3, m.Unit, v.bWins, v.aWins, v.verdict)
		}
	}
	return nil
}

// verdict is judge's outcome for one metric of one workload.
type verdict struct {
	aWins, bWins int
	verdict      string
}

// judge compares paired values (a[i] and b[i] ran with the same seed).
func judge(a, b []float64, higherBetter bool, bound float64) verdict {
	var v verdict
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	for i := range a {
		switch {
		case better(b[i], a[i]):
			v.bWins++
		case better(a[i], b[i]):
			v.aWins++
		}
	}
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	need := int(math.Ceil(0.9 * float64(len(a))))
	gap := math.Abs(bm - am)
	worseBy := (bm - am) / math.Abs(am)
	if higherBetter {
		worseBy = -worseBy
	}
	switch {
	case v.bWins >= need && gap > a3-a1:
		v.verdict = "better (b)"
	case v.aWins >= need && gap > b3-b1 && worseBy <= bound:
		v.verdict = "better (a), within the bound"
	case worseBy > bound:
		v.verdict = fmt.Sprintf("worse: b's median is %.1f %% worse, bound %.0f %%", 100*worseBy, 100*bound)
	case (a3-a1)/math.Abs(am) > bound || (b3-b1)/math.Abs(bm) > bound:
		v.verdict = "unresolved: run-to-run spread wider than the bound"
	default:
		v.verdict = "same within the bound"
	}
	return v
}
