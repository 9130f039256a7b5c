package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	slower := []float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}
	noisy := []float64{60, 140, 70, 130, 100, 65, 135, 100, 75, 125}
	cases := []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"faster", base, faster, false, "better (b)"},
		{"slower", base, slower, false, "worse"},
		{"fewer per second", base, faster, true, "worse"},
		{"same", base, base, false, "same"},
		{"noisy", base, noisy, false, "unresolved"},
	}
	for _, c := range cases {
		if v := judge(c.a, c.b, c.higher, 0.1); !strings.HasPrefix(v.verdict, c.want) {
			t.Errorf("%s: %q, want %q", c.name, v.verdict, c.want)
		}
	}
}

func TestCompareAlternatesAndReports(t *testing.T) {
	spec := &benchSpec{}
	spec.EndToEnd = append(spec.EndToEnd, struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{"plan_p50_ms", "ms", "lower", 0.1})
	var order []string
	fake := func(dir, workload string, seed int64, seconds int) (*result, error) {
		order = append(order, dir)
		v := 10.0
		if dir == "b" {
			v = 8
		}
		return &result{Correct: true, Attempted: 10, Metrics: map[string]metricValue{"plan_p50_ms": {Value: v + 0.01*float64(seed), Unit: "ms"}}}, nil
	}
	var out bytes.Buffer
	if err := compare(&out, spec, []string{"w"}, "a", "b", fake); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "abbaabbaabbaabbaabba" {
		t.Fatalf("run order %s, want ten alternating pairs", got)
	}
	if !strings.Contains(out.String(), "better (b)") {
		t.Fatalf("report:\n%s", out.String())
	}
}
